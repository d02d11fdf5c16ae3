// Package flow wires the substrates into the five placement flows compared
// in Table III of the paper:
//
//	Flow (1): unconstrained mLEF placement (no row assignment, no
//	          row-constraint legalization) — the baseline reference.
//	Flow (2): row assignment of the prior work [10] (y k-means) + the prior
//	          work's row-constraint Abacus legalization.
//	Flow (3): row assignment of [10] + the proposed fence-aware
//	          legalization.
//	Flow (4): the proposed ILP row assignment + [10]'s legalization.
//	Flow (5): the proposed ILP row assignment + the proposed fence-aware
//	          legalization (the paper's final flow).
//
// All five start from the same unconstrained initial placement; flows
// (2)–(5) revert the mLEF transform and legalize onto the restacked
// mixed-height die. For fairness, N_minR for the ILP flows is taken from
// Flow (2)'s result, as in the paper.
package flow

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"mthplace/internal/baseline"
	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/obs"
	"mthplace/internal/par"
	"mthplace/internal/placer"
	"mthplace/internal/power"
	"mthplace/internal/route"
	"mthplace/internal/rowgrid"
	"mthplace/internal/sta"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// Typed failure classes, re-exported from internal/errs so flow callers (and
// the HTTP layer above them) can classify outcomes with errors.Is without
// importing the bottom-layer package:
//
//	ErrInfeasible — the RAP (or a legalization capacity check) proved the
//	                instance unsatisfiable; retrying won't help, fix the spec.
//	ErrTimeout    — a context deadline expired mid-stage.
//	ErrCanceled   — the caller canceled the context mid-stage.
//	ErrTransient  — a recoverable infrastructure failure (injected faults
//	                included); the job server retries this class.
//	ErrPanic      — a panic caught at the runner boundary; the process
//	                survives and the run reports a typed failure.
var (
	ErrInfeasible = errs.ErrInfeasible
	ErrTimeout    = errs.ErrTimeout
	ErrCanceled   = errs.ErrCanceled
	ErrTransient  = errs.ErrTransient
	ErrPanic      = errs.ErrPanic
	// ErrUnavailable — a backend (remote worker, open circuit) could not
	// take the work at all; the scheduler re-routes this class.
	ErrUnavailable = errs.ErrUnavailable
)

// Fault points at the runner's stage boundaries (see internal/fault and
// DESIGN.md §10). Each is checked once per stage entry; with no active
// fault plan the cost is one atomic load.
const (
	PointParse    = "flow.parse"
	PointCluster  = "flow.cluster"
	PointSolve    = "flow.solve"
	PointLegalize = "flow.legalize"
	PointRoute    = "flow.route"
)

// ID names a flow.
type ID int

// The five flows of Table III.
const (
	Flow1 ID = iota + 1
	Flow2
	Flow3
	Flow4
	Flow5
)

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("Flow(%d)", int(id)) }

// UsesILP reports whether the flow runs the proposed row assignment.
func (id ID) UsesILP() bool { return id == Flow4 || id == Flow5 }

// UsesFenceLegalization reports whether the flow runs the proposed
// legalization.
func (id ID) UsesFenceLegalization() bool { return id == Flow3 || id == Flow5 }

// Config bundles all stage options.
type Config struct {
	Synth    synth.Options
	Placer   placer.Options
	Core     core.Options
	Baseline baseline.Options
	// FencePasses is the median-improvement pass count of the proposed
	// legalization (default 3).
	FencePasses int
	Route       route.Options
	STA         sta.Options
	Power       power.Options
	// Jobs bounds this runner's worker pool: 1 forces fully sequential
	// execution, 0 inherits the process default (GOMAXPROCS, or the
	// MTHPLACE_JOBS environment override). Results are identical at any
	// setting; see DESIGN.md §7. Unlike the old global par.SetJobs knob,
	// the bound is scoped to the runner, so concurrent runners with
	// different Jobs settings do not interfere.
	Jobs int
	// Pool, when non-nil, is used directly instead of building one from
	// Jobs — it lets several runners share one budgeted pool (the job
	// server caps total parallelism this way).
	Pool *par.Pool
	// Verify, when set, runs the independent internal/check auditors on
	// every flow result — placement legality, fence containment and a
	// metrics recompute — and fails the run if any invariant is violated.
	// It is the paranoid mode used by tests, the golden regression corpus
	// and `rcplace -verify`; the cost is one extra O(cells + pins) pass.
	Verify bool
}

// EffectivePool resolves the worker pool this config asks for: an explicit
// Pool wins, then a fresh pool bounded by Jobs, then the process-wide
// default. Drivers that fan out above the flow level (internal/exp) resolve
// once and share the pool across their runners.
func (c Config) EffectivePool() *par.Pool {
	if c.Pool != nil {
		return c.Pool
	}
	if c.Jobs > 0 {
		return par.NewPool(c.Jobs)
	}
	return par.Default
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config {
	return Config{
		Synth:       synth.DefaultOptions(),
		Core:        core.DefaultOptions(),
		Baseline:    baseline.DefaultOptions(),
		FencePasses: 3,
	}
}

// Metrics are the per-flow measurements of Tables IV and V.
type Metrics struct {
	Flow ID
	// Post-placement (Table IV).
	Displacement int64
	HPWL         int64
	RAPTime      time.Duration
	LegalTime    time.Duration
	TotalTime    time.Duration
	// Solver statistics (Fig. 5, §IV-B.3/4).
	NumClusters int
	NumMinority int
	NminR       int
	ILPVars     int
	// Degradation provenance of the RAP solve (DESIGN.md §10): the ladder
	// rung that produced the row assignment ("ilp", "anytime", "greedy"),
	// whether that was a forced degradation, why, and the optimality-gap
	// bound (-1 = unknown). Empty for Flow (1), which runs no assignment.
	SolveRung          string
	SolveDegraded      bool
	SolveDegradeReason string
	SolveGap           float64
	// Solver names the backend that ran the assignment: "rap" (the default) or
	// "greedy" for the constraint-aware flows, "baseline" for Flows (2)/(3),
	// empty for Flow (1).
	Solver string
	// Post-route (Table V); populated when routing was requested.
	Routed   bool
	RoutedWL int64
	PowerMW  float64
	WNSps    float64
	TNSps    float64
	Overflow int
}

// Result is a completed flow: the final design and its metrics.
type Result struct {
	Design  *netlist.Design
	Stack   *rowgrid.MixedStack
	Metrics Metrics
}

// Runner prepares a testcase once (synthesis, mLEF, initial placement) and
// runs any of the five flows from that shared starting point.
type Runner struct {
	Spec synth.Spec
	Cfg  Config

	Tech *tech.Tech
	Lib  *celllib.Library

	// Base is the Flow (1) design: mLEF form, globally placed, uniformly
	// legalized. Flows clone it; never mutate it.
	Base *netlist.Design
	// Grid is the uniform mLEF pair grid.
	Grid rowgrid.PairGrid
	// RefPos are Flow (1) positions (displacement reference).
	RefPos []geom.Point
	// NminR is Flow (2)'s minority row count (the fairness budget).
	NminR int
	// InitTime is the shared synthesis+placement preparation time.
	InitTime time.Duration

	pool       *par.Pool
	baseAssign *baseline.Result
}

// NewRunner generates the testcase and the unconstrained initial placement.
// The context bounds the preparation work (its worker pool is taken from the
// config, not the context) and cancellation aborts between stages. A panic
// in any preparation stage is caught at this boundary and returned as an
// ErrPanic-classed error, so a faulty (or fault-injected) stage can never
// take the calling process down.
func NewRunner(ctx context.Context, spec synth.Spec, cfg Config) (r *Runner, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			r, err = nil, errs.FromPanic(rec, "flow: prepare %s", spec.Name())
		}
	}()
	pool := cfg.EffectivePool()
	ctx = par.WithPool(ctx, pool)
	start := time.Now()
	if err := stage(ctx, "parse", func(ctx context.Context) error {
		tc := tech.Default()
		lib := celllib.New(tc)
		if err := fault.Inject(ctx, PointParse); err != nil {
			return fmt.Errorf("flow: prepare: %w", err)
		}
		d, err := synth.Generate(tc, lib, spec, cfg.Synth)
		if err != nil {
			return err
		}
		m, err := lefdef.ApplyMLEF(d)
		if err != nil {
			return err
		}
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("flow: prepare: %w", err)
		}
		placer.Global(d, cfg.Placer)
		g := rowgrid.Uniform(d.Die, m.PairH)
		if err := legalize.Uniform(d, g); err != nil {
			return err
		}
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("flow: prepare: %w", err)
		}
		r = &Runner{
			Spec: spec, Cfg: cfg, Tech: tc, Lib: lib,
			Base: d, Grid: g, RefPos: d.Positions(),
			pool: pool,
		}
		// Flow (2)'s assignment fixes N_minR for every row-constraint flow.
		ba, err := baseline.AssignRows(d, g, cfg.Baseline)
		if err != nil {
			return fmt.Errorf("flow: baseline row assignment: %w", err)
		}
		r.baseAssign = ba
		r.NminR = ba.NminR
		return nil
	}); err != nil {
		return nil, err
	}
	r.InitTime = time.Since(start)
	obs.Log(ctx).Info("flow: testcase prepared", "testcase", spec.Name(),
		"cells", len(r.Base.Insts), "nets", len(r.Base.Nets), "nminr", r.NminR, "dur", r.InitTime)
	return r, nil
}

// Pool returns the runner's scoped worker pool (for callers that want to
// share it, or to inspect the effective bound).
func (r *Runner) Pool() *par.Pool { return r.pool }

// withPool attaches the runner's pool to ctx so every stage underneath
// resolves the same scoped bound.
func (r *Runner) withPool(ctx context.Context) context.Context {
	return par.WithPool(ctx, r.pool)
}

// stage runs fn under one stage's instrumentation: a progress event at
// entry, a "flow.<name>" span (the same five boundaries the fault injector
// arms), an mth_stage_seconds observation, a pprof "stage" label, and a
// debug log line. The instrumentation is read-only — fn's result is
// returned untouched — and with no sinks installed the cost is two context
// lookups plus two atomic histogram updates per stage. fn receives a
// context positioned inside the stage span, so solver-level spans (and any
// remote dispatch) parent under the stage rather than beside it.
func stage(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	obs.Emit(ctx, obs.Event{Source: "flow", Kind: "stage", Stage: name})
	sctx, sp := obs.StartSpanCtx(ctx, "flow."+name)
	start := time.Now()
	var err error
	pprof.Do(sctx, pprof.Labels("stage", name), func(sctx context.Context) {
		err = fn(sctx)
	})
	dur := time.Since(start)
	if err != nil {
		sp.SetArg("error", err.Error())
	}
	sp.End()
	obs.StageSeconds(name).Observe(dur.Seconds())
	if err != nil {
		obs.Log(ctx).Debug("flow stage failed", "stage", name, "dur", dur, "err", err)
	} else {
		obs.Log(ctx).Debug("flow stage done", "stage", name, "dur", dur)
	}
	return err
}

// Run executes one flow. withRoute additionally routes the result and fills
// the post-route metrics. Cancellation of ctx aborts the run within one
// solver/Lloyd iteration (or one legalization pass) and surfaces as
// ErrCanceled (deadline expiry as ErrTimeout). A panic in any stage —
// worker-pool panics included, since the pool re-raises them on this
// goroutine — is caught here and returned as an ErrPanic-classed error:
// the runner either returns a verified placement or a typed failure, never
// unwinds the caller.
func (r *Runner) Run(ctx context.Context, id ID, withRoute bool) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, errs.FromPanic(rec, "flow: %v", id)
		}
	}()
	ctx = r.withPool(ctx)
	switch id {
	case Flow1:
		return r.runFlow1(ctx, withRoute)
	case Flow2, Flow3, Flow4, Flow5:
		return r.runConstraint(ctx, id, withRoute)
	default:
		return nil, fmt.Errorf("flow: unknown flow %d", int(id))
	}
}

// RunAll executes every flow (Flow 3 is post-placement only in the paper's
// Table V; we still route it when asked).
func (r *Runner) RunAll(ctx context.Context, withRoute bool) (map[ID]*Result, error) {
	out := make(map[ID]*Result, 5)
	for _, id := range []ID{Flow1, Flow2, Flow3, Flow4, Flow5} {
		res, err := r.Run(ctx, id, withRoute)
		if err != nil {
			return nil, fmt.Errorf("flow: %v: %w", id, err)
		}
		out[id] = res
	}
	return out, nil
}

func (r *Runner) runFlow1(ctx context.Context, withRoute bool) (*Result, error) {
	if err := errs.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("flow: %v: %w", Flow1, err)
	}
	d := r.Base.Clone()
	res := &Result{Design: d}
	res.Metrics = Metrics{
		Flow:         Flow1,
		Displacement: 0,
		HPWL:         d.TotalHPWL(),
		TotalTime:    r.InitTime,
		NumMinority:  len(d.MinorityInstances()),
		NminR:        r.NminR,
	}
	if r.Cfg.Verify {
		if err := r.VerifyResult(res).Err(); err != nil {
			return nil, fmt.Errorf("flow %v verification: %w", Flow1, err)
		}
	}
	if withRoute {
		if err := r.routeAndSign(ctx, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func (r *Runner) runConstraint(ctx context.Context, id ID, withRoute bool) (*Result, error) {
	d := r.Base.Clone()
	met := Metrics{Flow: id, NumMinority: len(d.MinorityInstances()), NminR: r.NminR}
	start := time.Now()

	// Row assignment.
	var stack *rowgrid.MixedStack
	var seedY map[int32]int64
	var cellPair map[int32]int
	if id.UsesILP() {
		// The proposed assignment, staged explicitly (rather than through
		// core.AssignRows) so clustering and the RAP solve sit behind their
		// own fault points and stage spans.
		rapStart := time.Now()
		var cl *core.Clusters
		var model *core.Model
		if err := stage(ctx, "cluster", func(ctx context.Context) error {
			if err := fault.Inject(ctx, PointCluster); err != nil {
				return fmt.Errorf("clustering: %w", err)
			}
			var err error
			if cl, err = core.BuildClusters(ctx, d, r.Cfg.Core.S, r.Cfg.Core.KMeansIters); err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
			if model, err = core.BuildModel(ctx, d, r.Grid, cl, r.NminR, r.Cfg.Core.Cost); err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		var ra *core.RowAssignment
		if err := stage(ctx, "solve", func(ctx context.Context) error {
			if err := fault.Inject(ctx, PointSolve); err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
			sol, err := core.Solve(ctx, model, r.Cfg.Core.Solve)
			if err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
			if ra, err = core.Finalize(d, r.Grid, model, cl, sol); err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		met.RAPTime = time.Since(rapStart)
		met.NumClusters = ra.Clusters.N()
		met.ILPVars = ra.Assignment.Stats.NumVars
		met.SolveRung = ra.Assignment.Stats.Rung
		met.SolveDegraded = ra.Assignment.Stats.Degraded
		met.SolveDegradeReason = ra.Assignment.Stats.DegradeReason
		met.SolveGap = ra.Assignment.Stats.Gap
		met.Solver = r.Cfg.Core.Solve.Backend
		if met.Solver == "" {
			met.Solver = core.BackendRAP
		}
		stack = ra.Stack
		seedY = ra.SeedY
		cellPair = ra.CellPair
	} else {
		// Flows (2)/(3): the baseline assignment (already computed once for
		// N_minR; recompute against this clone's identical placement to
		// charge its runtime).
		rapStart := time.Now()
		if err := stage(ctx, "solve", func(ctx context.Context) error {
			if err := fault.Inject(ctx, PointSolve); err != nil {
				return fmt.Errorf("baseline assignment: %w", err)
			}
			ba, err := baseline.AssignRows(d, r.Grid, r.Cfg.Baseline)
			if err != nil {
				return fmt.Errorf("baseline assignment: %w", err)
			}
			met.NumClusters = ba.NminR
			stack = ba.Stack
			seedY = ba.SeedY
			cellPair = ba.CellPair
			return nil
		}); err != nil {
			return nil, err
		}
		met.RAPTime = time.Since(rapStart)
		met.SolveRung = "baseline"
		met.Solver = "baseline"
	}
	if err := errs.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("row assignment: %w", err)
	}
	obs.SolveTotal(met.SolveRung, met.Solver).Inc()

	// Back to true mixed-height cells, then legalize under row-constraint.
	if err := lefdef.Revert(d); err != nil {
		return nil, err
	}
	legalStart := time.Now()
	if err := stage(ctx, "legalize", func(ctx context.Context) error {
		if err := fault.Inject(ctx, PointLegalize); err != nil {
			return fmt.Errorf("legalization: %w", err)
		}
		if id.UsesFenceLegalization() {
			return legalize.FenceAware(ctx, d, stack, seedY, r.Cfg.FencePasses)
		}
		// [10]-style: move minority cells to their assigned rows, then
		// displacement-minimising Abacus with each cell bound to its
		// assigned pair (overflow spills, at a price).
		for i, y := range seedY {
			if !d.Insts[i].Fixed {
				d.Insts[i].Pos.Y = y
			}
		}
		return legalize.RowConstraintAssigned(ctx, d, stack, cellPair)
	}); err != nil {
		return nil, err
	}
	met.LegalTime = time.Since(legalStart)
	return r.finish(ctx, d, stack, met, start, withRoute)
}

// finish is the epilogue of every flow that places onto a mixed stack
// (runConstraint and RunFinFlex): the placement must pass the independent
// legality auditor check.Placement, the same judge Config.Verify and
// `rcplace -verify` use; then the run's wall time and quality metrics are
// taken, the rest of the VerifyResult audit runs when Config.Verify is set,
// and the result is routed when asked.
func (r *Runner) finish(ctx context.Context, d *netlist.Design, stack *rowgrid.MixedStack, met Metrics, start time.Time, withRoute bool) (*Result, error) {
	if err := check.Placement(d, stack).Err(); err != nil {
		return nil, fmt.Errorf("flow %v produced illegal placement: %w", met.Flow, err)
	}
	met.TotalTime = time.Since(start)
	met.Displacement = d.Displacement(r.RefPos)
	met.HPWL = d.TotalHPWL()
	obs.Log(ctx).Debug("flow completed", "flow", met.Flow.String(), "rung", met.SolveRung,
		"displacement", met.Displacement, "hpwl", met.HPWL, "dur", met.TotalTime)

	res := &Result{Design: d, Stack: stack, Metrics: met}
	if r.Cfg.Verify {
		if err := r.auditBeyondPlacement(res).Err(); err != nil {
			return nil, fmt.Errorf("flow %v verification: %w", met.Flow, err)
		}
	}
	if withRoute {
		if err := r.routeAndSign(ctx, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// routeAndSign routes the result and fills post-route WL, power and timing.
// The route/STA/power substrates are no slower than the solve stages, so
// cancellation is only checked between them: in a traced paper_matrix pass
// of cmd/bench (8 testcases at scale 0.03, 40 routes, 2-vCPU x86-64 host)
// routing took 0.28–0.33 s in all (about 8 ms a call), STA 12–14 ms and
// power 1.4–1.6 ms, against 0.26–0.30 s of RAP solve and 0.27–0.31 s of
// global placement.
func (r *Runner) routeAndSign(ctx context.Context, res *Result) error {
	return stage(ctx, "route", func(ctx context.Context) error {
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("route: %w", err)
		}
		if err := fault.Inject(ctx, PointRoute); err != nil {
			return fmt.Errorf("route: %w", err)
		}
		rt, err := route.Route(res.Design, r.Cfg.Route)
		if err != nil {
			return err
		}
		staOpt := r.Cfg.STA
		staOpt.NetLength = rt.NetLength
		timing, err := sta.Analyze(res.Design, staOpt)
		if err != nil {
			return err
		}
		pwrOpt := r.Cfg.Power
		pwrOpt.NetLength = rt.NetLength
		pwr, err := power.Analyze(res.Design, pwrOpt)
		if err != nil {
			return err
		}
		res.Metrics.Routed = true
		res.Metrics.RoutedWL = rt.WirelengthDBU
		res.Metrics.Overflow = rt.Overflow
		res.Metrics.WNSps = timing.WNSps
		res.Metrics.TNSps = timing.TNSps
		res.Metrics.PowerMW = pwr.TotalMW()
		return nil
	})
}

// VerifyResult runs the independent internal/check auditors on a completed
// flow result against this runner's reference state: netlist integrity,
// placement legality (mixed-stack when the result carries one, the uniform
// grid otherwise), fence containment for mixed results, and a naive
// recompute of the reported displacement/HPWL totals. Runs with
// Config.Verify set call it automatically and fail on violations; callers
// such as `rcplace -verify` call it directly to render the full report.
func (r *Runner) VerifyResult(res *Result) *check.Report {
	var rep *check.Report
	if res.Stack != nil {
		rep = check.Placement(res.Design, res.Stack)
	} else {
		rep = check.PlacementUniform(res.Design, r.Grid)
	}
	return rep.Merge(r.auditBeyondPlacement(res))
}

// auditBeyondPlacement runs the VerifyResult auditors other than placement
// legality: netlist integrity, fence containment for mixed results, and the
// metric recompute. finish has already judged legality, so under
// Config.Verify it adds only these.
func (r *Runner) auditBeyondPlacement(res *Result) *check.Report {
	rep := check.Netlist(res.Design)
	if res.Stack != nil {
		rep.Merge(check.Fences(res.Design, res.Stack))
	}
	return rep.Merge(check.Metrics(res.Design, r.RefPos, res.Metrics.Displacement, res.Metrics.HPWL))
}
