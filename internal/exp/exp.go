// Package exp drives the reproduction of every table and figure in the
// paper's evaluation (§IV): Table II (testcases), Table IV (post-placement),
// Table V (post-route), Fig. 4 (parameter sweeps), Fig. 5 (ILP runtime
// scaling), and the §IV-B ablations (clustering impact, runtime profile,
// overhead vs the unconstrained placement).
//
// Like the paper, it takes Tables IV–V, Fig. 5, the profile and the
// overhead study from one run per testcase and flow: RunMatrix runs the
// five Table III flows once on every testcase, and those five results are
// views of the Matrix it returns. Fig. 4(a) and the clustering ablation
// are likewise views of one s-sweep (RunSSweep). Every driver prepares
// its runners through one per-testcase fan-out (forEachSpec).
//
// Experiments run at a configurable design scale (Config.Scale): 1.0
// regenerates paper-size designs; the recorded results in EXPERIMENTS.md
// state the scale they were produced at. Scaling shrinks every testcase by
// the same factor and preserves minority fractions, connectivity statistics
// and utilization, so flow-vs-flow comparisons keep their shape.
package exp

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"mthplace/internal/baseline"
	"mthplace/internal/celllib"
	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/metrics"
	"mthplace/internal/par"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// Config controls an experiment run.
type Config struct {
	// Scale multiplies every testcase's cell count (default 0.15).
	Scale float64
	// Seed for the synthetic generator (default 1).
	Seed int64
	// Specs are the testcases (default: all of Table II).
	Specs []synth.Spec
	// Flow overrides stage options (zero value = paper defaults).
	Flow flow.Config
	// Log receives per-testcase progress; nil discards it.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.15
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Specs == nil {
		c.Specs = synth.TableII()
	}
	// Fill only the stage options left at zero from flow.DefaultConfig;
	// everything else the caller set (Verify, Pool, Placer, Route, STA,
	// Power, a solver backend) is kept.
	def, f := flow.DefaultConfig(), &c.Flow
	if s := f.Synth; s == (synth.Options{Scale: s.Scale, Seed: s.Seed}) {
		f.Synth = def.Synth
	}
	f.Synth.Scale, f.Synth.Seed = c.Scale, c.Seed
	if f.Core.S == 0 {
		f.Core.S = def.Core.S
	}
	if f.Core.Cost == (core.CostParams{}) {
		f.Core.Cost = def.Core.Cost
	}
	if solve := f.Core.Solve; solve == (core.SolveOptions{Backend: solve.Backend}) {
		f.Core.Solve = def.Core.Solve
		f.Core.Solve.Backend = solve.Backend
	}
	if f.Baseline == (baseline.Options{}) {
		f.Baseline = def.Baseline
	}
	if f.FencePasses == 0 {
		f.FencePasses = def.FencePasses
	}
	// Experiment drivers fan the per-spec loops out on the config's pool;
	// resolve it once so every runner shares the same scoped bound.
	f.Pool = f.EffectivePool()
	return c
}

// representative narrows the full Table II suite to the 14 testcases the
// paper's parameter sweeps use; an explicit subset is kept as given.
func (c Config) representative() Config {
	if len(c.Specs) == 26 {
		c.Specs = synth.ParameterSweepSpecs()
	}
	return c
}

// logf emits one progress line through the structured logger. Specs run
// concurrently, so line order may vary with completion order; result tables
// never do (rows are collected in spec order). slog handlers serialise
// their writes, so no extra mutex is needed.
func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Info(fmt.Sprintf(format, args...))
	}
}

// forEachSpec is the one per-testcase fan-out of every driver that runs
// flows: it prepares one runner per spec of a defaulted config and calls fn
// with it. Specs run concurrently on the config's pool (the work inside fn
// stays sequential: it shares the runner); results come back in spec
// order whatever the completion order.
func forEachSpec[T any](ctx context.Context, cfg Config, fn func(r *flow.Runner) (T, error)) ([]T, error) {
	return par.MapOn(cfg.Flow.Pool, len(cfg.Specs), func(si int) (T, error) {
		spec := cfg.Specs[si]
		r, err := flow.NewRunner(ctx, spec, cfg.Flow)
		if err != nil {
			var zero T
			return zero, fmt.Errorf("exp: %s: %w", spec.Name(), err)
		}
		v, err := fn(r)
		if err != nil {
			return v, fmt.Errorf("exp: %s: %w", spec.Name(), err)
		}
		return v, nil
	})
}

// ---------------------------------------------------------------- Table II

// Table2Row reports one generated testcase's statistics.
type Table2Row struct {
	Name        string
	ClockPs     float64
	Cells       int
	MinorityPct float64
	Nets        int
}

// Table2Result is the regenerated Table II.
type Table2Result struct {
	Scale float64
	Rows  []Table2Row
}

// Table2 regenerates the testcase suite and reports its statistics. Specs
// run concurrently on the config's pool; rows come back in spec order.
func Table2(ctx context.Context, cfg Config) (*Table2Result, error) {
	cfg = cfg.withDefaults()
	tc := tech.Default()
	out := &Table2Result{Scale: cfg.Scale}
	rows, err := par.MapOn(cfg.Flow.Pool, len(cfg.Specs), func(si int) (Table2Row, error) {
		if err := ctx.Err(); err != nil {
			return Table2Row{}, err
		}
		spec := cfg.Specs[si]
		lib := celllib.New(tc)
		d, err := synth.Generate(tc, lib, spec, cfg.Flow.Synth)
		if err != nil {
			return Table2Row{}, fmt.Errorf("exp: %s: %w", spec.Name(), err)
		}
		st := d.ComputeStats()
		cfg.logf("table2: %s cells=%d 7.5T=%.2f%% nets=%d", spec.Name(), st.Cells, st.MinorityPct, st.Nets)
		return Table2Row{
			Name:        spec.Name(),
			ClockPs:     spec.ClockPs,
			Cells:       st.Cells,
			MinorityPct: st.MinorityPct,
			Nets:        st.Nets,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Table renders the result.
func (r *Table2Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Table II — testcase specifications (scale %.2f)", r.Scale),
		Headers: []string{"bench", "clock(ps)", "#cells", "7.5T(%)", "#nets"},
	}
	for _, row := range r.Rows {
		t.Add(row.Name, metrics.F(row.ClockPs, 0), fmt.Sprint(row.Cells),
			metrics.F(row.MinorityPct, 2), fmt.Sprint(row.Nets))
	}
	return t
}

// ---------------------------------------------------------------- Table IV

// Table4Row holds one testcase's post-placement metrics for the five flows.
type Table4Row struct {
	Name string
	// Disp for flows 2..5 (Flow 1 is the zero reference).
	Disp [4]int64
	// HPWL for flows 1..5.
	HPWL [5]int64
	// Time (placement-stage total) for flows 2..5.
	Time [4]time.Duration
	// Degraded marks flows 2..5 whose solve settled below the proven ILP
	// optimum (anytime incumbent or greedy fallback); the rendered table
	// flags them with '*'.
	Degraded [4]bool
}

// Table4Result is the regenerated Table IV.
type Table4Result struct {
	Scale float64
	Rows  []Table4Row
	// NormDisp, NormHPWL, NormTime are the paper-style normalized rows
	// (Flow 2 = 1.0; HPWL normalisation also reports Flow 1).
	NormDisp [4]float64
	NormHPWL [5]float64
	NormTime [4]float64
}

// Matrix is one run of the five Table III flows on every testcase. It
// keeps only each run's metrics (the designs are dropped as soon as they
// are read), and Tables IV–V, Fig. 5, the §IV-B.3 profile and the §IV-B.6
// overhead study are views of it that run nothing further.
type Matrix struct {
	Scale float64
	// Routed reports that Flows 1, 2, 4 and 5 were routed and signed off.
	// Flow 3 never is: Table V has no Flow 3 column.
	Routed bool
	Rows   []MatrixRow
}

// MatrixRow is one testcase's metrics, indexed by flow.ID − 1.
type MatrixRow struct {
	Name  string
	Flows [5]flow.Metrics
}

// RunMatrix runs Flows 1–5 once, in order, on one runner per testcase;
// routed also routes Flows 1, 2, 4 and 5 (Table V and the overhead study
// need it).
func RunMatrix(ctx context.Context, cfg Config, routed bool) (*Matrix, error) {
	cfg = cfg.withDefaults()
	rows, err := forEachSpec(ctx, cfg, func(r *flow.Runner) (MatrixRow, error) {
		row := MatrixRow{Name: r.Spec.Name()}
		for _, id := range []flow.ID{flow.Flow1, flow.Flow2, flow.Flow3, flow.Flow4, flow.Flow5} {
			res, err := r.Run(ctx, id, routed && id != flow.Flow3)
			if err != nil {
				return MatrixRow{}, fmt.Errorf("%v: %w", id, err)
			}
			row.Flows[id-1] = res.Metrics
		}
		f := &row.Flows
		cfg.logf("matrix: %s disp2=%d disp4=%d hpwl2=%d hpwl5=%d wl5=%d",
			row.Name, f[1].Displacement, f[3].Displacement, f[1].HPWL, f[4].HPWL, f[4].RoutedWL)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Matrix{Scale: cfg.Scale, Routed: routed, Rows: rows}, nil
}

// needRoute is the one check behind the views that read post-route
// metrics.
func (m *Matrix) needRoute(view string) error {
	if !m.Routed {
		return fmt.Errorf("exp: %s needs a routed matrix", view)
	}
	return nil
}

// Table4 runs flows (1)–(5) post-placement on every testcase.
func Table4(ctx context.Context, cfg Config) (*Table4Result, error) {
	m, err := RunMatrix(ctx, cfg, false)
	if err != nil {
		return nil, err
	}
	return m.Table4(), nil
}

// Table4 is the Table IV view of the matrix.
func (m *Matrix) Table4() *Table4Result {
	out := &Table4Result{Scale: m.Scale}
	var dispRows, hpwlRows, timeRows [][]float64
	for _, mr := range m.Rows {
		row := Table4Row{Name: mr.Name}
		for k, met := range mr.Flows[1:] {
			row.Disp[k] = met.Displacement
			row.Time[k] = met.TotalTime
			row.Degraded[k] = met.SolveDegraded
		}
		for k, met := range mr.Flows {
			row.HPWL[k] = met.HPWL
		}
		out.Rows = append(out.Rows, row)
		dispRows = append(dispRows, toF64(row.Disp[:]))
		hpwlRows = append(hpwlRows, toF64(row.HPWL[:]))
		tr := make([]float64, 4)
		for k := range row.Time {
			tr[k] = row.Time[k].Seconds()
		}
		timeRows = append(timeRows, tr)
	}
	copy(out.NormDisp[:], metrics.NormalizedMean(dispRows, 0))
	copy(out.NormHPWL[:], metrics.NormalizedMean(hpwlRows, 1))
	copy(out.NormTime[:], metrics.NormalizedMean(timeRows, 0))
	return out
}

func toF64(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// Table renders the result.
func (r *Table4Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Table IV — post-placement results (scale %.2f; Disp/HPWL in 1e5 DBU, time in s)", r.Scale),
		Headers: []string{"testcase",
			"D(2)", "D(3)", "D(4)", "D(5)",
			"H(1)", "H(2)", "H(3)", "H(4)", "H(5)",
			"T(2)", "T(3)", "T(4)", "T(5)"},
	}
	anyDegraded := false
	for _, row := range r.Rows {
		cells := []string{row.Name}
		for k, v := range row.Disp {
			c := metrics.F(float64(v)/1e5, 2)
			if row.Degraded[k] {
				c += "*"
				anyDegraded = true
			}
			cells = append(cells, c)
		}
		for _, v := range row.HPWL {
			cells = append(cells, metrics.F(float64(v)/1e5, 2))
		}
		for _, v := range row.Time {
			cells = append(cells, metrics.F(v.Seconds(), 2))
		}
		t.Add(cells...)
	}
	if anyDegraded {
		t.Title += "; * = degraded solve (anytime/greedy rung, not proven optimal)"
	}
	norm := []string{"Normalized"}
	for _, v := range r.NormDisp {
		norm = append(norm, metrics.F(v, 3))
	}
	for _, v := range r.NormHPWL {
		norm = append(norm, metrics.F(v, 3))
	}
	for _, v := range r.NormTime {
		norm = append(norm, metrics.F(v, 3))
	}
	t.Add(norm...)
	return t
}

// ---------------------------------------------------------------- Table V

// Table5Row holds one testcase's post-route metrics for flows 1, 2, 4, 5.
type Table5Row struct {
	Name  string
	WL    [4]int64 // routed wirelength, DBU
	Power [4]float64
	WNS   [4]float64 // ps (negative = violating)
	TNS   [4]float64
}

// Table5Result is the regenerated Table V.
type Table5Result struct {
	Scale     float64
	Rows      []Table5Row
	NormWL    [4]float64
	NormPower [4]float64
	NormWNS   [4]float64
	NormTNS   [4]float64
}

var table5Flows = []flow.ID{flow.Flow1, flow.Flow2, flow.Flow4, flow.Flow5}

// Table5 runs flows (1)–(5) on every testcase, routing and signing off
// flows (1), (2), (4) and (5).
func Table5(ctx context.Context, cfg Config) (*Table5Result, error) {
	m, err := RunMatrix(ctx, cfg, true)
	if err != nil {
		return nil, err
	}
	return m.Table5()
}

// Table5 is the Table V view of the matrix. It is an error on a matrix
// run without routing.
func (m *Matrix) Table5() (*Table5Result, error) {
	if err := m.needRoute("Table V"); err != nil {
		return nil, err
	}
	out := &Table5Result{Scale: m.Scale}
	var wlRows, pRows, wnsRows, tnsRows [][]float64
	for _, mr := range m.Rows {
		row := Table5Row{Name: mr.Name}
		for k, id := range table5Flows {
			met := mr.Flows[id-1]
			row.WL[k] = met.RoutedWL
			row.Power[k] = met.PowerMW
			row.WNS[k] = met.WNSps
			row.TNS[k] = met.TNSps
		}
		out.Rows = append(out.Rows, row)
		wlRows = append(wlRows, toF64(row.WL[:]))
		pRows = append(pRows, row.Power[:])
		// WNS/TNS are negative-or-zero; normalise magnitudes like the paper
		// (smaller magnitude is better, Flow 2 = 1).
		wnsRows = append(wnsRows, negMag(row.WNS[:]))
		tnsRows = append(tnsRows, negMag(row.TNS[:]))
	}
	copy(out.NormWL[:], metrics.NormalizedMean(wlRows, 1))
	copy(out.NormPower[:], metrics.NormalizedMean(pRows, 1))
	copy(out.NormWNS[:], metrics.NormalizedMean(wnsRows, 1))
	copy(out.NormTNS[:], metrics.NormalizedMean(tnsRows, 1))
	return out, nil
}

// negMag maps slacks to their violation magnitudes (≥0); a clean design
// contributes a tiny epsilon so the normalising division stays defined.
func negMag(vs []float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = -v
		if out[i] < 1e-9 {
			out[i] = 1e-9
		}
	}
	return out
}

// Table renders the result.
func (r *Table5Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Table V — post-route results (scale %.2f; WL in 1e5 DBU, power mW, WNS/TNS ns)", r.Scale),
		Headers: []string{"testcase",
			"WL(1)", "WL(2)", "WL(4)", "WL(5)",
			"P(1)", "P(2)", "P(4)", "P(5)",
			"WNS(1)", "WNS(2)", "WNS(4)", "WNS(5)",
			"TNS(1)", "TNS(2)", "TNS(4)", "TNS(5)"},
	}
	for _, row := range r.Rows {
		cells := []string{row.Name}
		for _, v := range row.WL {
			cells = append(cells, metrics.F(float64(v)/1e5, 2))
		}
		for _, v := range row.Power {
			cells = append(cells, metrics.F(v, 1))
		}
		for _, v := range row.WNS {
			cells = append(cells, metrics.F(v/1000, 3))
		}
		for _, v := range row.TNS {
			cells = append(cells, metrics.F(v/1000, 1))
		}
		t.Add(cells...)
	}
	norm := []string{"Normalized"}
	for _, vs := range [][4]float64{r.NormWL, r.NormPower, r.NormWNS, r.NormTNS} {
		for _, v := range vs {
			norm = append(norm, metrics.F(v, 3))
		}
	}
	t.Add(norm...)
	return t
}
