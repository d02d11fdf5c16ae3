// Command experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	experiments -table2            Table II  (testcase statistics)
//	experiments -table4            Table IV  (post-placement, 5 flows)
//	experiments -table5            Table V   (post-route, 4 flows)
//	experiments -fig4a             Fig. 4(a) (clustering resolution sweep)
//	experiments -fig4b             Fig. 4(b) (alpha sweep)
//	experiments -fig5              Fig. 5    (ILP runtime scaling)
//	experiments -ablation          §IV-B.4   (clustering impact)
//	experiments -profile           §IV-B.3   (runtime profile)
//	experiments -overhead          §IV-B.6   (overhead vs unconstrained)
//	experiments -all               everything above
//
// One invocation runs each testcase's flows once: -table4, -table5, -fig5,
// -profile and -overhead render views of one experiment matrix (routed
// when -table5, -overhead or -all is set), and -fig4a and -ablation views
// of one s-sweep.
//
// -scale shrinks every testcase proportionally (1.0 = paper-size designs);
// the output records the scale used. -only restricts to testcases whose name
// contains the given substring.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/exp"
	"mthplace/internal/metrics"
	"mthplace/internal/obs"
	"mthplace/internal/synth"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0.10, "design scale factor (1.0 = paper size)")
		seed     = flag.Int64("seed", 1, "generator seed")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); expiry exits 124")
		jobs     = flag.Int("jobs", 0, "worker pool bound (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		only     = flag.String("only", "", "restrict to testcases whose name contains this substring")
		solver   = flag.String("solver", "", "RAP solver backend: rap (default; structure-aware Lagrangian branch and bound) or greedy")
		verbose  = flag.Bool("v", false, "log per-testcase progress to stderr")
		quiet    = flag.Bool("q", false, "quiet: warnings and errors only on stderr")
		table2   = flag.Bool("table2", false, "regenerate Table II")
		table4   = flag.Bool("table4", false, "regenerate Table IV")
		table5   = flag.Bool("table5", false, "regenerate Table V")
		fig4a    = flag.Bool("fig4a", false, "regenerate Fig. 4(a)")
		fig4b    = flag.Bool("fig4b", false, "regenerate Fig. 4(b)")
		fig5     = flag.Bool("fig5", false, "regenerate Fig. 5")
		ablation = flag.Bool("ablation", false, "clustering ablation (§IV-B.4)")
		profile  = flag.Bool("profile", false, "runtime profile (§IV-B.3)")
		overhead = flag.Bool("overhead", false, "overhead vs Flow 1 (§IV-B.6)")
		finflex  = flag.Bool("finflex", false, "customised rows vs pre-determined pattern (future work)")
		swap     = flag.Bool("swap", false, "track-height swapping study (future work)")
		all      = flag.Bool("all", false, "run everything")
	)
	flag.Parse()

	// Ctrl-C cancels the in-flight experiment at the next stage boundary.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := core.ValidBackend(*solver); err != nil {
		fatal(err)
	}

	cfg := exp.Config{Scale: *scale, Seed: *seed}
	cfg.Flow.Jobs = *jobs
	cfg.Flow.Core.Solve.Backend = *solver
	if *verbose {
		// Per-testcase progress stays opt-in: tables land on stdout, the
		// structured progress log on stderr.
		cfg.Log = obs.NewCLILogger(os.Stderr, false, *quiet)
	}
	if *only != "" {
		var specs []synth.Spec
		for _, s := range synth.TableII() {
			if strings.Contains(s.Name(), *only) {
				specs = append(specs, s)
			}
		}
		if len(specs) == 0 {
			fatal(fmt.Errorf("no testcase matches %q", *only))
		}
		cfg.Specs = specs
	}

	any := false
	want := func(enabled bool) bool {
		any = any || *all || enabled
		return *all || enabled
	}
	check := func(err error) {
		if err == nil {
			return
		}
		if errors.Is(err, errs.ErrTimeout) {
			fmt.Fprintln(os.Stderr, "experiments: timed out after", *timeout)
			os.Exit(124)
		}
		fatal(err)
	}
	show := func(r interface{ Table() *metrics.Table }, err error) {
		check(err)
		r.Table().Render(os.Stdout)
		fmt.Println()
	}
	// Tables IV–V, Fig. 5, the profile and the overhead study are views of
	// one experiment matrix, and Fig. 4(a) and the ablation of one s-sweep:
	// each is built once, on first use, and every output keeps its place.
	var m *exp.Matrix
	matrix := func() *exp.Matrix {
		if m == nil {
			var err error
			m, err = exp.RunMatrix(ctx, cfg, *all || *table5 || *overhead)
			check(err)
		}
		return m
	}
	var sw *exp.SSweep
	sSweep := func() *exp.SSweep {
		if sw == nil {
			var err error
			sw, err = exp.RunSSweep(ctx, cfg, nil)
			check(err)
		}
		return sw
	}

	if want(*table2) {
		show(exp.Table2(ctx, cfg))
	}
	if want(*table4) {
		show(matrix().Table4(), nil)
	}
	if want(*table5) {
		show(matrix().Table5())
	}
	if want(*fig4a) {
		show(sSweep().Fig4a(), nil)
	}
	if want(*fig4b) {
		show(exp.Fig4b(ctx, cfg, nil))
	}
	if want(*fig5) {
		show(matrix().Fig5(), nil)
	}
	if want(*ablation) {
		show(sSweep().Ablation())
	}
	if want(*profile) {
		show(matrix().Profile(), nil)
	}
	if want(*finflex) {
		show(exp.FinFlexStudy(ctx, cfg))
	}
	if want(*swap) {
		show(exp.SwapStudy(ctx, cfg))
	}
	if want(*overhead) {
		show(matrix().Overhead())
	}

	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
