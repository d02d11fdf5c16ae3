// Package mth is the stable public facade of the mixed track-height
// placement engine. It re-exports the spec/config/metrics types and the
// context-aware entry points that external callers (the CLIs, the job
// server, and downstream users) should build against, so the internal
// packages stay free to move.
//
// Typical use:
//
//	spec, _ := mth.FindSpec("ac97_ctrl")
//	cfg := mth.DefaultConfig()
//	cfg.Synth.Scale = 0.1
//	res, err := mth.Run(ctx, spec, cfg, mth.Flow5, false)
//
// or, to run several flows from one prepared testcase:
//
//	r, _ := mth.NewRunner(ctx, spec, cfg)
//	f2, _ := r.Run(ctx, mth.Flow2, false)
//	f5, _ := r.Run(ctx, mth.Flow5, false)
//
// Cancel the context to abort a run: the engine checks it at solver/Lloyd
// iteration and legalization pass boundaries, and the returned error
// matches mth.ErrCanceled (deadline expiry: mth.ErrTimeout) under
// errors.Is. Per-run parallelism is scoped through Config.Jobs (or a
// shared Config.Pool); concurrent runners never interfere.
package mth

import (
	"context"
	"fmt"

	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/par"
	"mthplace/internal/synth"
)

// Core request/response types, aliased so values flow freely between this
// facade and the internal packages.
type (
	// Spec describes a synthetic testcase (Table II row).
	Spec = synth.Spec
	// Config bundles every stage's options plus the parallelism bound.
	Config = flow.Config
	// ID names one of the placement flows.
	ID = flow.ID
	// Metrics are the per-flow measurements of Tables IV and V.
	Metrics = flow.Metrics
	// Result is a completed flow: the final design and its metrics.
	Result = flow.Result
	// Runner prepares a testcase once and runs any flow from it.
	Runner = flow.Runner
	// Pool is a scoped worker-pool handle (see Config.Pool).
	Pool = par.Pool
)

// The five flows of Table III, plus the FinFlex future-work comparator.
const (
	Flow1       = flow.Flow1
	Flow2       = flow.Flow2
	Flow3       = flow.Flow3
	Flow4       = flow.Flow4
	Flow5       = flow.Flow5
	FlowFinFlex = flow.FlowFinFlex
)

// Typed failure classes for errors.Is — see flow's docs for semantics.
var (
	ErrInfeasible = flow.ErrInfeasible
	ErrTimeout    = flow.ErrTimeout
	ErrCanceled   = flow.ErrCanceled
	// ErrTransient marks failures expected to clear on retry (injected
	// faults, briefly unavailable resources).
	ErrTransient = flow.ErrTransient
	// ErrPanic marks a panic caught at the flow boundary and converted to
	// an error; it is a bug report, never a retry candidate.
	ErrPanic = flow.ErrPanic
	// ErrUnavailable marks a backend (remote worker, open circuit) that
	// could not take the work at all; the service answers 503 + Retry-After
	// for this class and the client's Submit/Wait honour it.
	ErrUnavailable = flow.ErrUnavailable
)

// Degradation policies for Config.Core.Solve.Degrade: the default anytime
// policy walks the ladder (ILP optimum → anytime incumbent → greedy) when
// budgets run out, honestly labelling the result in Metrics; the strict
// policy fails fast instead, for callers that must have the proven optimum.
const (
	DegradeAnytime = core.DegradeAnytime
	DegradeStrict  = core.DegradeStrict
)

// Solve-ladder rung names as they appear in Metrics.SolveRung.
const (
	RungILP     = core.RungILP
	RungAnytime = core.RungAnytime
	RungGreedy  = core.RungGreedy
)

// Solver backends for Config.Core.Solve.Backend: the structure-aware
// Lagrangian branch and bound (the default) or the greedy heuristic alone.
const (
	BackendRAP    = core.BackendRAP
	BackendGreedy = core.BackendGreedy
)

// ValidBackend reports whether name is a usable Config.Core.Solve.Backend
// value ("" selects the default rap backend). CLIs and the job server
// validate requests with it before starting work.
func ValidBackend(name string) error { return core.ValidBackend(name) }

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig() Config { return flow.DefaultConfig() }

// TableII returns the paper's full testcase suite.
func TableII() []Spec { return synth.TableII() }

// FindSpec returns the Table II spec with the given name.
func FindSpec(name string) (Spec, error) {
	for _, s := range synth.TableII() {
		if s.Name() == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("mth: unknown testcase %q", name)
}

// NewPool builds a worker pool bounded to n jobs (n <= 0: the process
// default), for sharing one parallelism budget across several configs.
func NewPool(n int) *Pool { return par.NewPool(n) }

// NewRunner generates the testcase and the shared unconstrained initial
// placement that every flow starts from.
func NewRunner(ctx context.Context, spec Spec, cfg Config) (*Runner, error) {
	return flow.NewRunner(ctx, spec, cfg)
}

// Run is the one-shot entry point: prepare the testcase and run one flow.
// withRoute additionally routes the result and fills the post-route
// metrics.
func Run(ctx context.Context, spec Spec, cfg Config, id ID, withRoute bool) (*Result, error) {
	r, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx, id, withRoute)
}
