// Command benchpar measures the parallel execution layer (DESIGN.md §7) and
// writes the results to a JSON file. Each workload runs at jobs=1 and at the
// requested worker bound; because the layer is deterministic the two runs
// produce identical outputs, so the report is purely about wall clock.
//
//	benchpar                     # write BENCH_parallel.json in the cwd
//	benchpar -jobs 8 -reps 5 -o /tmp/bench.json
//
// On a host with a single CPU the parallel numbers measure the pool's
// scheduling overhead, not a speedup; the report records the host core count
// so readers can interpret the ratios.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mthplace/internal/celllib"
	"mthplace/internal/cluster"
	"mthplace/internal/core"
	"mthplace/internal/exp"
	"mthplace/internal/flow"
	"mthplace/internal/lefdef"
	"mthplace/internal/par"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// Report is the schema of BENCH_parallel.json.
type Report struct {
	// Host records where the numbers were taken. Speedup ratios are only
	// meaningful when NumCPU > 1.
	Host struct {
		GoVersion  string `json:"go_version"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	Jobs      int        `json:"jobs"`
	Reps      int        `json:"reps"`
	Workloads []Workload `json:"workloads"`
	// Scale is the million-cell suite (benchpar -scale N): one large design
	// driven through generation, the HPWL kernel, a streaming DEF write and an
	// end-to-end greedy flow, with heap per cell recorded. Absent when
	// -scale was not requested.
	Scale *ScaleReport `json:"scale,omitempty"`
}

// ScaleReport is one large-design run of the scale suite.
type ScaleReport struct {
	Testcase string  `json:"testcase"`
	Cells    int     `json:"cells"`
	Nets     int     `json:"nets"`
	GenMS    float64 `json:"gen_ms"`
	// Heap footprint per cell of the design's pointer graph (live-heap
	// delta around generation).
	AoSHeapBytesPerCell float64 `json:"aos_heap_bytes_per_cell"`
	// HPWL metric kernel over the whole design.
	HPWLAoSMS float64 `json:"hpwl_aos_ms"`
	// Streaming DEF write of the generated design to a file.
	DEFBytes   int64   `json:"def_bytes"`
	DEFWriteMS float64 `json:"def_write_ms"`
	// End-to-end flow with the greedy RAP backend: prepare (synthesis,
	// mLEF, global place, uniform legalize) plus the full Flow (5) run,
	// final placement streamed back out as DEF.
	FlowSolver  string  `json:"flow_solver"`
	FlowPrepMS  float64 `json:"flow_prep_ms"`
	FlowRunMS   float64 `json:"flow_run_ms"`
	FlowHPWL    int64   `json:"flow_hpwl"`
	FlowOutMS   float64 `json:"flow_def_out_ms"`
	FlowOutSize int64   `json:"flow_def_out_bytes"`
}

// Workload is one benchmark: best-of-reps wall clock at jobs=1 and jobs=N.
type Workload struct {
	Name       string  `json:"name"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

func main() {
	var (
		jobs  = flag.Int("jobs", 0, "parallel worker bound (0 = GOMAXPROCS)")
		reps  = flag.Int("reps", 3, "repetitions per workload (best is kept)")
		out   = flag.String("o", "BENCH_parallel.json", "output file")
		scale = flag.Int("scale", 0, "also run the scale suite at this cell count (e.g. 1000000); records bytes/cell and an end-to-end greedy flow")
	)
	flag.Parse()
	if *jobs <= 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}

	var rep Report
	rep.Host.GoVersion = runtime.Version()
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Jobs = *jobs
	rep.Reps = *reps

	for _, w := range []struct {
		name string
		fn   func(ctx context.Context) error
	}{
		{"BuildModel/des3_210", benchBuildModel()},
		{"KMeans2D/2000pts_k400", benchKMeans()},
		{"Table4Matrix/2specs", benchTable4()},
	} {
		serial, err := timeAt(1, *reps, w.fn)
		if err != nil {
			fatal(fmt.Errorf("%s (serial): %w", w.name, err))
		}
		parallel, err := timeAt(*jobs, *reps, w.fn)
		if err != nil {
			fatal(fmt.Errorf("%s (parallel): %w", w.name, err))
		}
		wl := Workload{
			Name:       w.name,
			SerialMS:   float64(serial.Microseconds()) / 1000,
			ParallelMS: float64(parallel.Microseconds()) / 1000,
			Speedup:    float64(serial) / float64(parallel),
		}
		rep.Workloads = append(rep.Workloads, wl)
		fmt.Printf("%-24s serial %8.2f ms   jobs=%d %8.2f ms   speedup %.2fx\n",
			wl.Name, wl.SerialMS, *jobs, wl.ParallelMS, wl.Speedup)
	}

	if *scale > 0 {
		sr, err := runScale(*scale, *jobs)
		if err != nil {
			fatal(fmt.Errorf("scale suite: %w", err))
		}
		rep.Scale = sr
		fmt.Printf("%-24s %d cells: gen %.0f ms, %.1f B/cell heap, HPWL %.0f ms\n",
			"Scale/"+sr.Testcase, sr.Cells, sr.GenMS, sr.AoSHeapBytesPerCell, sr.HPWLAoSMS)
		fmt.Printf("%-24s DEF %d MB: write %.0f ms; flow(%s) prep %.0f ms + run %.0f ms\n",
			"", sr.DEFBytes>>20, sr.DEFWriteMS, sr.FlowSolver, sr.FlowPrepMS, sr.FlowRunMS)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (host: %d CPU)\n", *out, rep.Host.NumCPU)
}

// runScale drives one large design (nova_300 rescaled to targetCells) through
// the whole data path: generation with per-cell heap accounting, HPWL,
// a streaming DEF write to a file, and an end-to-end Flow (5)
// run with the greedy RAP backend. Every stage is timed once — at a million
// cells the interesting number is "does it complete and in what footprint",
// not best-of-N variance.
func runScale(targetCells, jobs int) (*ScaleReport, error) {
	sp := spec("nova_300")
	sr := &ScaleReport{Testcase: sp.Name()}
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = sp.ScaleForCells(targetCells)

	// Live-heap delta around generation approximates the pointer graph.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	d, err := synth.Generate(tc, lib, sp, opt)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	sr.GenMS = msSince(start)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	sr.Cells = len(d.Insts)
	sr.Nets = len(d.Nets)
	sr.AoSHeapBytesPerCell = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(sr.Cells)

	start = time.Now()
	d.TotalHPWL()
	sr.HPWLAoSMS = msSince(start)

	// Streaming DEF out to a real file: the design text never materialises
	// in memory.
	tmp, err := os.CreateTemp("", "benchpar-scale-*.def")
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	start = time.Now()
	if err := lefdef.WriteDEF(tmp, d); err != nil {
		return nil, fmt.Errorf("write DEF: %w", err)
	}
	sr.DEFWriteMS = msSince(start)
	if st, err := tmp.Stat(); err == nil {
		sr.DEFBytes = st.Size()
	}

	// Drop the standalone copy before the flow allocates its own, so the
	// peak footprint is one design, not two.
	d = nil
	runtime.GC()

	cfg := flow.DefaultConfig()
	cfg.Synth = opt
	cfg.Core.Solve.Backend = core.BackendGreedy
	cfg.Placer.OuterIters = 2
	cfg.Placer.SolveSweeps = 4
	cfg.Pool = par.NewPool(jobs)
	sr.FlowSolver = core.BackendGreedy
	ctx := context.Background()
	start = time.Now()
	r, err := flow.NewRunner(ctx, sp, cfg)
	if err != nil {
		return nil, fmt.Errorf("flow prep: %w", err)
	}
	sr.FlowPrepMS = msSince(start)
	start = time.Now()
	res, err := r.Run(ctx, flow.Flow5, false)
	if err != nil {
		return nil, fmt.Errorf("flow run: %w", err)
	}
	sr.FlowRunMS = msSince(start)
	sr.FlowHPWL = res.Metrics.HPWL

	outF, err := os.CreateTemp("", "benchpar-scale-out-*.def")
	if err != nil {
		return nil, err
	}
	defer os.Remove(outF.Name())
	defer outF.Close()
	start = time.Now()
	if err := lefdef.WriteDEF(outF, res.Design); err != nil {
		return nil, fmt.Errorf("write result DEF: %w", err)
	}
	sr.FlowOutMS = msSince(start)
	if st, err := outF.Stat(); err == nil {
		sr.FlowOutSize = st.Size()
	}
	return sr, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

// timeAt runs fn reps times on a pool bound to jobs workers (carried via the
// context, so nothing global changes) and returns the best wall clock.
func timeAt(jobs, reps int, fn func(ctx context.Context) error) (time.Duration, error) {
	ctx := par.WithPool(context.Background(), par.NewPool(jobs))
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(ctx); err != nil {
			return 0, err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// benchBuildModel prepares the clustered RAP inputs once and returns a
// closure that rebuilds the cost model.
func benchBuildModel() func(ctx context.Context) error {
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.02
	cfg.Placer.OuterIters = 6
	cfg.Placer.SolveSweeps = 10
	r, err := flow.NewRunner(context.Background(), spec("des3_210"), cfg)
	if err != nil {
		fatal(err)
	}
	cl, err := core.BuildClusters(context.Background(), r.Base.Clone(), 0.2, 30)
	if err != nil {
		fatal(err)
	}
	return func(ctx context.Context) error {
		_, err := core.BuildModel(ctx, r.Base, r.Grid, cl, r.NminR, core.DefaultCostParams())
		return err
	}
}

func benchKMeans() func(ctx context.Context) error {
	pts := make([]cluster.Point2, 2000)
	for i := range pts {
		pts[i] = cluster.Point2{X: float64(i*131%9973) / 9973, Y: float64(i*197%9967) / 9967}
	}
	return func(ctx context.Context) error {
		cluster.KMeans2D(ctx, pts, 400, 30)
		return nil
	}
}

func benchTable4() func(ctx context.Context) error {
	var specs []synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == "aes_360" || s.Name() == "fpu_4500" {
			specs = append(specs, s)
		}
	}
	return func(ctx context.Context) error {
		cfg := exp.Config{Scale: 0.015, Specs: specs}
		cfg.Flow = flow.DefaultConfig()
		cfg.Flow.Placer.OuterIters = 4
		cfg.Flow.Placer.SolveSweeps = 6
		// The experiment fans out on the timed pool carried by ctx.
		cfg.Flow.Pool = par.FromContext(ctx)
		_, err := exp.Table4(ctx, cfg)
		return err
	}
}

func spec(name string) synth.Spec {
	for _, s := range synth.TableII() {
		if s.Name() == name {
			return s
		}
	}
	fatal(fmt.Errorf("unknown spec %s", name))
	panic("unreachable")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpar:", err)
	os.Exit(1)
}
