package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/exp"
	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/synth"
)

// Layers the flow replay times, reported per unit of work.
var flowLayers = []string{
	"synth.generate", "lefdef.mlef", "placer.global", "legalize.uniform", "baseline.assign",
	"netlist.clone", "core.cluster", "core.model", "core.solve", "core.finalize",
	"lefdef.revert", "legalize.fence", "legalize.rowc", "legalize.verify", "netlist.metrics",
	"route.route", "sta.analyze", "power.analyze",
}

// minCoverage is the share of a traced unit's wall time its leaf spans
// must cover; less means the replay misses a call into some layer.
const minCoverage = 0.95

// timedLoop runs units in cycles of cycle units until the budget is spent.
// It starts another cycle only while the time used so far plus a cycle of
// median units fits the budget, and always runs at least one cycle. Units
// of one cycle work on different inputs, so stopping between cycles keeps
// every input equally represented in the percentiles. unit returns the
// seconds it wants counted, so checks inside it stay outside the timed
// region.
func timedLoop(budget time.Duration, cycle int, unit func(i int) (float64, error)) ([]float64, error) {
	var walls []float64
	used := 0.0
	for i := 0; ; i++ {
		if i >= cycle && i%cycle == 0 && used+float64(cycle)*median(walls) > budget.Seconds() {
			return walls, nil
		}
		w, err := unit(i)
		if err != nil {
			return walls, err
		}
		walls = append(walls, w)
		used += w
	}
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func specNamed(name string) (synth.Spec, error) {
	for _, s := range synth.TableII() {
		if s.Name() == name {
			return s, nil
		}
	}
	return synth.Spec{}, fmt.Errorf("unknown testcase %q", name)
}

func specsNamed(names []string) ([]synth.Spec, error) {
	out := make([]synth.Spec, len(names))
	for i, n := range names {
		s, err := specNamed(n)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// deriveSeed maps the workload seed and a stream index to a positive
// synthesis seed (0 would select the generator's default).
func deriveSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x>>2) + 1
}

// matrixConfig is the flow configuration of one paper_matrix instance
// set, exactly as exp resolves it.
func matrixConfig(scale float64, seed int64) flow.Config {
	cfg := flow.DefaultConfig()
	cfg.Core.Solve.Backend = core.BackendRAP
	cfg.Synth.Scale = scale
	cfg.Synth.Seed = seed
	cfg.Pool = cfg.EffectivePool()
	return cfg
}

// matrixPass is one untraced paper_matrix unit: Tables IV and V.
type matrixPass struct {
	t4 *exp.Table4Result
	t5 *exp.Table5Result
}

// passEnv names the environment variable that makes the benchmark binary
// a pass process: it holds a passSpec as JSON.
const passEnv = "MTHBENCH_MATRIX_PASS"

// passSpec is the work of one pass process: Tables IV and V of one
// instance set.
type passSpec struct {
	Specs []string `json:"specs"`
	Scale float64  `json:"scale"`
	Seed  int64    `json:"seed"`
}

// passReport is what a pass process writes to standard output.
type passReport struct {
	WallS float64           `json:"wall_s"`
	T4    *exp.Table4Result `json:"t4"`
	T5    *exp.Table5Result `json:"t5"`
}

// runPassProcess is the body of a pass process: it runs exp.Table4 then
// exp.Table5, as `experiments -table4 -table5` does, and reports them with
// their wall time. It returns the exit code.
func runPassProcess(arg string) int {
	var ps passSpec
	err := json.Unmarshal([]byte(arg), &ps)
	var specs []synth.Spec
	if err == nil {
		specs, err = specsNamed(ps.Specs)
	}
	rep := passReport{}
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		cfg := exp.Config{Scale: ps.Scale, Seed: ps.Seed, Specs: specs, Flow: matrixConfig(ps.Scale, ps.Seed)}
		t0 := time.Now()
		if rep.T4, err = exp.Table4(ctx, cfg); err == nil {
			rep.T5, err = exp.Table5(ctx, cfg)
		}
		rep.WallS = since(t0)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: pass:", err)
		return 1
	}
	return 0
}

// runPass runs one pass in a process of its own and returns it with its
// wall time in seconds and the process's peak resident set size in MB.
// Each pass starting from a fresh heap makes the peak the memory one
// regeneration of the tables needs.
func runPass(ctx context.Context, ps passSpec) (matrixPass, float64, float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return matrixPass{}, 0, 0, err
	}
	arg, err := json.Marshal(ps)
	if err != nil {
		return matrixPass{}, 0, 0, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return matrixPass{}, 0, 0, fmt.Errorf("pass process: %w", err)
	}
	var rep passReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return matrixPass{}, 0, 0, fmt.Errorf("pass process: bad report: %w", err)
	}
	return matrixPass{rep.T4, rep.T5}, rep.WallS, peakRSSMB(cmd.ProcessState), nil
}

func runPaperMatrix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	sz := e.size
	specs, err := specsNamed(sz.matrixSpecs)
	if err != nil {
		return nil, err
	}
	setSeed := func(set int) int64 { return deriveSeed(e.seed, set) }

	// Set-up: prepare every testcase of instance set 0 (synthesis, mLEF,
	// global placement, uniform legalization, baseline assignment). The
	// runners of the last round feed the correctness gate.
	var runners []*flow.Runner
	var setup []float64
	for round := 0; round < sz.setupRounds(e.trace); round++ {
		runners = nil // the previous round's designs are garbage from here
		t0 := time.Now()
		if runners, err = prepareAll(ctx, specs, matrixConfig(sz.matrixScale, setSeed(0))); err != nil {
			return nil, err
		}
		setup = append(setup, since(t0))
	}
	o.metrics["setup_s"] = median(setup)

	// Timed passes cycle through the instance sets; quality is taken from
	// the first pass of each set, and repeats must reproduce it exactly.
	sets := sz.matrixSets
	budget := e.budget
	if e.trace {
		budget = e.budget / 2
	}
	var passes []matrixPass
	var peaks []float64
	walls, err := timedLoop(budget, sets, func(i int) (float64, error) {
		p, w, peak, err := runPass(ctx, passSpec{Specs: sz.matrixSpecs, Scale: sz.matrixScale, Seed: setSeed(i % sets)})
		if err != nil {
			return 0, err
		}
		passes = append(passes, p)
		peaks = append(peaks, peak)
		return w, nil
	})
	o.attempted = len(walls)
	if err != nil {
		o.attempted++
		o.fail("pass %d: %v", len(walls), err)
		return o, nil
	}
	o.setLatency(walls)
	o.metrics["peak_rss_mb"] = median(peaks)
	o.note("pass processes peaked at %.1f–%.1f MB", sorted(peaks)[0], sorted(peaks)[len(peaks)-1])

	var hp, dp, wl, pw, wns, tns []float64
	ilp, optimal := 0, 0
	for _, p := range passes[:sets] {
		hp = append(hp, p.t4.NormHPWL[4])
		dp = append(dp, p.t4.NormDisp[3])
		wl = append(wl, p.t5.NormWL[3])
		pw = append(pw, p.t5.NormPower[3])
		wns = append(wns, p.t5.NormWNS[3])
		tns = append(tns, p.t5.NormTNS[3])
		for _, row := range p.t4.Rows {
			for _, deg := range row.Degraded[2:] {
				ilp++
				if !deg {
					optimal++
				}
			}
		}
	}
	o.metrics["hpwl_f5_f2"] = mean(hp)
	o.metrics["legalize.disp_f5_f2"] = mean(dp)
	o.metrics["route.rwl_f5_f2"] = mean(wl)
	o.metrics["power.power_f5_f2"] = mean(pw)
	o.metrics["sta.wns_f5_f2"] = mean(wns)
	o.metrics["sta.tns_f5_f2"] = mean(tns)
	o.metrics["core.optimal_frac"] = float64(optimal) / float64(ilp)
	for i := sets; i < len(passes); i++ {
		if d := diffPass(passes[i%sets], passes[i]); d != "" {
			o.fail("pass %d repeats instance set %d but differs: %s", i, i%sets, d)
		}
	}

	// Correctness gate, outside every timed region: replay Table IV's flows
	// of each instance set through flow.Runner with the independent checkers
	// on, and require exp's numbers.
	t0 := time.Now()
	for set := 0; set < sets; set++ {
		if set > 0 {
			runners = nil
			if runners, err = prepareAll(ctx, specs, matrixConfig(sz.matrixScale, setSeed(set))); err != nil {
				return nil, err
			}
		}
		for si, r := range runners {
			gateTestcase(ctx, o, r, passes[set].t4.Rows[si])
		}
	}
	o.metrics["check.audit_s"] = since(t0)

	if e.trace {
		tracePaperMatrix(ctx, e, o, specs, matrixConfig(sz.matrixScale, setSeed(0)), passes[0], median(walls))
	}
	return o, nil
}

// prepareAll prepares every testcase with the independent checkers on;
// Config.Verify changes nothing before a flow runs.
func prepareAll(ctx context.Context, specs []synth.Spec, cfg flow.Config) ([]*flow.Runner, error) {
	cfg.Verify = true
	runners := make([]*flow.Runner, len(specs))
	for i, sp := range specs {
		var err error
		if runners[i], err = flow.NewRunner(ctx, sp, cfg); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", sp.Name(), err)
		}
	}
	return runners, nil
}

// gateTestcase runs flows (1)–(5) of one Table IV row with Config.Verify
// on and compares them with exp's row.
func gateTestcase(ctx context.Context, o *outcome, r *flow.Runner, row exp.Table4Row) {
	res, err := r.RunAll(ctx, false)
	if err != nil {
		o.fail("%s: verified replay: %v", row.Name, err)
		return
	}
	for k, id := range table4Flows {
		m := res[id].Metrics
		if m.HPWL != row.HPWL[k] {
			o.fail("%s %v: HPWL %d, exp reported %d", row.Name, id, m.HPWL, row.HPWL[k])
		}
		if k > 0 && m.Displacement != row.Disp[k-1] {
			o.fail("%s %v: displacement %d, exp reported %d", row.Name, id, m.Displacement, row.Disp[k-1])
		}
		if m.SolveDegradeReason == "time-limit" || m.SolveDegradeReason == "deadline" {
			o.fail("%s %v: solve stopped on the wall clock (%s); outputs would depend on host speed", row.Name, id, m.SolveDegradeReason)
		}
	}
}

// diffPass compares two passes over the same instance set, wall-clock
// columns excepted.
func diffPass(a, b matrixPass) string {
	for i := range a.t4.Rows {
		x, y := a.t4.Rows[i], b.t4.Rows[i]
		if x.Disp != y.Disp || x.HPWL != y.HPWL || x.Degraded != y.Degraded {
			return "Table IV row " + x.Name
		}
	}
	for i := range a.t5.Rows {
		if a.t5.Rows[i] != b.t5.Rows[i] {
			return "Table V row " + a.t5.Rows[i].Name
		}
	}
	return ""
}

// The flows each exp table runs, in its column order.
var (
	table4Flows = []flow.ID{flow.Flow1, flow.Flow2, flow.Flow3, flow.Flow4, flow.Flow5}
	table5Flows = []flow.ID{flow.Flow1, flow.Flow2, flow.Flow4, flow.Flow5}
)

// tracePaperMatrix replays instance set 0 through the mirror, sequentially,
// as exp's per-testcase loop would run with one worker.
func tracePaperMatrix(ctx context.Context, e *env, o *outcome, specs []synth.Spec, cfg flow.Config, ref matrixPass, untracedWall float64) {
	m := newMirror(e.tr)
	var roots []int
	walls, err := timedLoop(e.budget/2, 1, func(int) (float64, error) {
		t0 := time.Now()
		root := e.tr.open("paper_matrix.pass", -1, 0)
		m.stack = []int{root}
		t4, err := m.table(ctx, "exp.table4", specs, cfg, table4Flows, false)
		var t5 [][]flowOut
		if err == nil {
			t5, err = m.table(ctx, "exp.table5", specs, cfg, table5Flows, true)
		}
		e.tr.close(root)
		m.stack = nil
		if err != nil {
			return 0, err
		}
		roots = append(roots, root)
		for si := range specs {
			row4, row5 := ref.t4.Rows[si], ref.t5.Rows[si]
			for k, got := range t4[si] {
				if got.HPWL != row4.HPWL[k] || (k > 0 && got.Disp != row4.Disp[k-1]) {
					o.fail("mirror drifted from flow.Runner: %s Table IV %v", row4.Name, table4Flows[k])
				}
			}
			for k, got := range t5[si] {
				if got.RoutedWL != row5.WL[k] || got.PowerMW != row5.Power[k] {
					o.fail("mirror drifted from flow.Runner: %s Table V %v", row5.Name, table5Flows[k])
				}
			}
		}
		return since(t0), nil
	})
	if err != nil {
		o.fail("traced pass: %v", err)
		return
	}
	o.layerMetrics(e.tr.snapshot(), roots, m)
	layerSum := 0.0
	for _, name := range flowLayers {
		layerSum += o.metrics[name+"_s"]
	}
	o.metrics["exp.parallelism"] = layerSum / untracedWall
	o.note("traced pass %.3f s (sequential replay) vs untraced %.3f s (exp fan-out)", median(walls), untracedWall)
}

// runScale prepares one large design per set-up round, each from its own
// seed, and runs Flows (2) and (5) on the designs in turn.
func runScale(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	sz := e.size
	sp, err := specNamed(sz.scaleSpec)
	if err != nil {
		return nil, err
	}
	cfgFor := func(k int) flow.Config {
		cfg := flow.DefaultConfig()
		cfg.Synth.Scale = sp.ScaleForCells(sz.scaleCells)
		cfg.Synth.Seed = deriveSeed(e.seed, k)
		cfg.Core.Solve.Backend = core.BackendGreedy
		return cfg
	}

	designs := sz.scaleDesigns
	if e.trace {
		designs = 1
	}
	var runners []*flow.Runner
	var setup []float64
	for k := 0; k < designs; k++ {
		t0 := time.Now()
		r, err := flow.NewRunner(ctx, sp, cfgFor(k))
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", sp.Name(), err)
		}
		setup = append(setup, since(t0))
		runners = append(runners, r)
	}
	o.metrics["setup_s"] = median(setup)

	// The first pass over a design keeps its results; later passes over it
	// must reproduce them exactly.
	ids := []flow.ID{flow.Flow2, flow.Flow5}
	n := len(runners)
	first := make([][2]*flow.Result, n)
	digests := make([][2]string, n)
	budget := e.budget
	if e.trace {
		budget = e.budget / 2
	}
	walls, err := timedLoop(budget, n, func(i int) (float64, error) {
		k := i % n
		var res [2]*flow.Result
		t0 := time.Now()
		for j, id := range ids {
			var err error
			if res[j], err = runners[k].Run(ctx, id, false); err != nil {
				return 0, err
			}
		}
		w := since(t0)
		for j := range ids {
			d := scheduler.PlacementDigest(res[j].Design)
			if i < n {
				first[k][j], digests[k][j] = res[j], d
			} else if d != digests[k][j] || res[j].Metrics.HPWL != first[k][j].Metrics.HPWL {
				o.fail("pass %d: %v on design %d differs from its first pass", i, ids[j], k)
			}
		}
		return w, nil
	})
	o.attempted = len(walls)
	if err != nil {
		o.attempted++
		o.fail("pass %d: %v", len(walls), err)
		return o, nil
	}
	o.setLatency(walls)
	var h2, h5, d2, d5 []float64
	optimal := 0
	for _, f := range first {
		m2, m5 := f[0].Metrics, f[1].Metrics
		h2, h5 = append(h2, float64(m2.HPWL)), append(h5, float64(m5.HPWL))
		d2, d5 = append(d2, float64(m2.Displacement)), append(d5, float64(m5.Displacement))
		if m5.SolveRung == core.RungILP {
			optimal++
		}
	}
	o.metrics["hpwl_f5_f2"] = ratioMean(h5, h2)
	o.metrics["legalize.disp_f5_f2"] = ratioMean(d5, d2)
	o.metrics["core.optimal_frac"] = float64(optimal) / float64(n)

	t0 := time.Now()
	for k, f := range first {
		for _, res := range f {
			if err := runners[k].VerifyResult(res).Err(); err != nil {
				o.fail("design %d %v: %v", k, res.Metrics.Flow, err)
			}
		}
	}
	o.metrics["check.audit_s"] = since(t0)

	if e.trace {
		want := [2]flow.Metrics{first[0][0].Metrics, first[0][1].Metrics}
		// Drop the untraced designs first so the replay's peak memory is
		// its own.
		runners, first = nil, nil
		traceScale(ctx, e, o, sp, cfgFor(0), want, median(setup)+median(walls))
	}
	return o, nil
}

// traceScale replays preparation plus Flows (2) and (5) through the
// mirror; each replay is one traced unit. untracedWall is the untraced
// set-up plus pass, the same work.
func traceScale(ctx context.Context, e *env, o *outcome, sp synth.Spec, cfg flow.Config, want [2]flow.Metrics, untracedWall float64) {
	m := newMirror(e.tr)
	var roots []int
	walls, err := timedLoop(e.budget/2, 1, func(int) (float64, error) {
		t0 := time.Now()
		root := e.tr.open("scale.unit", -1, 0)
		m.stack = []int{root}
		r, err := m.prepare(sp, cfg)
		var got [2]flowOut
		for k, id := range []flow.ID{flow.Flow2, flow.Flow5} {
			if err != nil {
				break
			}
			got[k], err = m.run(ctx, r, id, false)
		}
		e.tr.close(root)
		m.stack = nil
		if err != nil {
			return 0, err
		}
		roots = append(roots, root)
		for k := range got {
			if got[k].Disp != want[k].Displacement || got[k].HPWL != want[k].HPWL {
				o.fail("mirror drifted from flow.Runner: %v", want[k].Flow)
			}
		}
		return since(t0), nil
	})
	if err != nil {
		o.fail("traced unit: %v", err)
		return
	}
	o.layerMetrics(e.tr.snapshot(), roots, m)
	o.note("traced unit %.3f s vs untraced set-up + pass %.3f s", median(walls), untracedWall)
}

// layerMetrics turns the mirror's spans into per-unit layer metrics and
// checks that leaf spans cover each unit.
func (o *outcome) layerMetrics(spans []span, roots []int, m *mirror) {
	n := float64(len(roots))
	for _, name := range flowLayers {
		total := 0.0
		for _, root := range roots {
			total += busy(spans, root, name).Seconds()
		}
		o.metrics[name+"_s"] = total / n
	}
	o.metrics["synth.cells"] = float64(m.cells) / n
	o.metrics["core.clusters"] = float64(m.clusters) / n
	o.metrics["core.solve_nodes"] = float64(m.nodes) / n
	o.metrics["route.overflow"] = float64(m.overflow) / n
	o.metrics["placer.alloc_mb"] = m.allocMB["placer.global"] / n
	o.metrics["route.alloc_mb"] = m.allocMB["route.route"] / n
	worst := math.Inf(1)
	for _, root := range roots {
		worst = math.Min(worst, leafCoverage(spans, root))
	}
	if worst < minCoverage {
		o.fail("leaf spans cover %.1f%% of a traced unit, want at least %.0f%%", 100*worst, 100*minCoverage)
	}
	o.note("leaf spans cover at least %.1f%% of every traced unit", 100*worst)
}
