// Command rcplace runs one of the five placement flows on one testcase and
// reports its post-placement (and optionally post-route) metrics. It can
// also dump the final placement as DEF and the cell library as LEF.
//
//	rcplace -testcase aes_360 -flow 5 -route
//	rcplace -testcase des3_210 -flow 2 -scale 0.2 -def out.def -lef out.lef
//	rcplace -testcase aes_360 -flow 5 -trace trace.json -progress
//
// The results block is machine-consumable and goes to stdout; everything
// diagnostic (the testcase preamble, progress events, file-written notes)
// goes to stderr through the structured logger, tunable with -v/-q.
// -trace records a Chrome trace_event file (open in chrome://tracing or
// https://ui.perfetto.dev) with one span per flow stage plus solver
// sub-spans; -progress streams solver events (RAP incumbents, k-means
// iteration movement) to stderr as they happen.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/flow"
	"mthplace/internal/lefdef"
	"mthplace/internal/obs"
	"mthplace/internal/synth"
	"mthplace/internal/viz"
)

func main() {
	var (
		testcase = flag.String("testcase", "aes_360", "Table II testcase name (e.g. aes_300, nova_500)")
		flowNum  = flag.Int("flow", 5, "flow to run (1-5, Table III)")
		scale    = flag.Float64("scale", 0.10, "design scale factor (1.0 = paper size)")
		seed     = flag.Int64("seed", 1, "generator seed")
		jobs     = flag.Int("jobs", 0, "worker pool bound (0 = GOMAXPROCS, 1 = sequential); results are identical at any setting")
		verify   = flag.Bool("verify", false, "audit the result with the independent invariant checkers (placement legality, fence containment, metrics recompute) and fail on any violation")
		doRoute  = flag.Bool("route", false, "route the result and report WL/power/WNS/TNS")
		defOut   = flag.String("def", "", "write the final placement to this DEF file")
		lefOut   = flag.String("lef", "", "write the cell library to this LEF file")
		svgOut   = flag.String("svg", "", "render the final placement to this SVG file")
		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
		progress = flag.Bool("progress", false, "stream solver progress events (stage transitions, RAP incumbents, k-means iterations) to stderr")
		verbose  = flag.Bool("v", false, "verbose diagnostics (debug level) on stderr")
		quiet    = flag.Bool("q", false, "quiet: warnings and errors only on stderr")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none); expiry exits 124")
		strict   = flag.Bool("strict", false, "fail fast instead of degrading to an anytime/greedy answer when solve budgets run out")
		solver   = flag.String("solver", "", "RAP solver backend: rap (default; structure-aware Lagrangian branch and bound) or greedy")
	)
	flag.Parse()

	if err := core.ValidBackend(*solver); err != nil {
		fatal(err)
	}

	lg := obs.NewCLILogger(os.Stderr, *verbose, *quiet)

	if err := fault.InitFromEnv(); err != nil {
		fatal(err)
	}

	spec, err := synth.Lookup(*testcase)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rcplace: unknown testcase %q; available:\n", *testcase)
		for _, s := range synth.TableII() {
			fmt.Fprintf(os.Stderr, "  %s\n", s.Name())
		}
		os.Exit(2)
	}
	if *flowNum < 1 || *flowNum > 5 {
		fatal(fmt.Errorf("flow %d out of range 1-5", *flowNum))
	}

	// Ctrl-C cancels the run at the next solver iteration boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Observability hooks ride the context: absent flags cost nothing.
	ctx = obs.WithLogger(ctx, lg)
	var tracer *obs.Tracer
	if *traceOut != "" {
		// Same span schema as the distributed fabric: records carry trace and
		// span IDs under a root span context, so a -trace file and a
		// GET /v1/jobs/{id}/trace response are interchangeable artifacts.
		tracer = obs.NewTracerFor("rcplace")
		ctx = obs.WithTracer(ctx, tracer)
		ctx = obs.WithSpanContext(ctx, obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()})
	}
	if *progress {
		ctx = obs.WithProgress(ctx, func(e obs.Event) {
			fmt.Fprintln(os.Stderr, "rcplace:", e.String())
		})
	}

	fcfg := flow.DefaultConfig()
	fcfg.Synth.Scale = *scale
	fcfg.Synth.Seed = *seed
	fcfg.Jobs = *jobs
	fcfg.Verify = *verify
	if *strict {
		fcfg.Core.Solve.Degrade = core.DegradeStrict
	}
	fcfg.Core.Solve.Backend = *solver
	runner, err := flow.NewRunner(ctx, spec, fcfg)
	if err != nil {
		fatal(err)
	}
	lg.Info("testcase prepared",
		"testcase", spec.Name(),
		"cells", len(runner.Base.Insts),
		"minority", len(runner.Base.MinorityInstances()),
		"minority_frac", fmt.Sprintf("%.3f", runner.Base.MinorityFraction()),
		"nets", len(runner.Base.Nets),
		"nminr", runner.NminR)

	res, err := runner.Run(ctx, flow.ID(*flowNum), *doRoute)
	writeTrace(tracer, *traceOut, lg) // even on failure: partial traces localize the failure
	if errors.Is(err, errs.ErrTimeout) {
		fmt.Fprintln(os.Stderr, "rcplace: timed out after", *timeout)
		os.Exit(124)
	}
	if errors.Is(err, errs.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "rcplace: interrupted")
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	m := res.Metrics
	fmt.Printf("%v results:\n", m.Flow)
	fmt.Printf("  displacement: %d DBU\n", m.Displacement)
	fmt.Printf("  HPWL:         %d DBU\n", m.HPWL)
	if m.Solver != "" {
		fmt.Printf("  solver:       %s\n", m.Solver)
	}
	if m.SolveRung != "" {
		fmt.Printf("  solve rung:   %s\n", rungLabel(m))
	}
	fmt.Printf("  RAP time:     %v\n", m.RAPTime)
	fmt.Printf("  legal time:   %v\n", m.LegalTime)
	fmt.Printf("  total time:   %v\n", m.TotalTime)
	if m.NumClusters > 0 {
		fmt.Printf("  clusters:     %d (ILP vars %d)\n", m.NumClusters, m.ILPVars)
	}
	if m.Routed {
		fmt.Printf("  routed WL:    %d DBU (overflow %d)\n", m.RoutedWL, m.Overflow)
		fmt.Printf("  total power:  %.3f mW\n", m.PowerMW)
		fmt.Printf("  WNS:          %.3f ns\n", m.WNSps/1000)
		fmt.Printf("  TNS:          %.3f ns\n", m.TNSps/1000)
	}
	if *verify {
		// The run already failed hard on violations (Config.Verify); rerun
		// the auditors here to render the verdict for the user.
		rep := runner.VerifyResult(res)
		if rep.Ok() {
			fmt.Printf("  verify:       ok (placement, fences, metrics; %d cells audited)\n", len(res.Design.Insts))
		} else {
			fmt.Printf("  verify:       %d violation(s)\n", len(rep.Violations))
			for _, v := range rep.Violations {
				fmt.Printf("    %s\n", v)
			}
			os.Exit(1)
		}
	}

	if *defOut != "" {
		f, err := os.Create(*defOut)
		if err != nil {
			fatal(err)
		}
		if err := lefdef.WriteDEF(f, res.Design); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		lg.Info("wrote DEF", "file", *defOut)
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fatal(err)
		}
		title := fmt.Sprintf("%s %v (blue=6T red=7.5T yellow=fence)", spec.Name(), m.Flow)
		if err := viz.WriteSVG(f, res.Design, viz.Options{Stack: res.Stack, ShowRows: true, Title: title}); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		lg.Info("wrote SVG", "file", *svgOut)
	}
	if *lefOut != "" {
		f, err := os.Create(*lefOut)
		if err != nil {
			fatal(err)
		}
		if err := lefdef.WriteLEF(f, runner.Tech, runner.Lib.Masters()); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		lg.Info("wrote LEF", "file", *lefOut)
	}
}

// writeTrace flushes the collected spans to the -trace file; nil tracer is
// a no-op.
func writeTrace(tracer *obs.Tracer, path string, lg *slog.Logger) {
	if tracer == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		lg.Warn("trace not written", "err", err)
		return
	}
	err = tracer.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		lg.Warn("trace not written", "err", err)
		return
	}
	lg.Info("wrote trace", "file", path, "events", tracer.Len())
}

// rungLabel renders the solve ladder's verdict: which rung answered, and
// for degraded runs why the ladder moved and how far from proven optimal
// the answer can be.
func rungLabel(m flow.Metrics) string {
	if !m.SolveDegraded {
		if m.SolveRung == core.RungILP {
			return "ilp (proven optimal)"
		}
		return m.SolveRung
	}
	s := fmt.Sprintf("%s (degraded: %s", m.SolveRung, m.SolveDegradeReason)
	if m.SolveGap >= 0 {
		s += fmt.Sprintf(", gap ≤ %.2f%%", 100*m.SolveGap)
	}
	return s + ")"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rcplace:", err)
	os.Exit(1)
}
