package flow

import (
	"context"
	"fmt"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/finflex"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// FlowFinFlex tags results of the pre-determined-pattern flow (the paper's
// future-work comparison; not part of Table III).
const FlowFinFlex ID = 6

// RunFinFlex places the testcase on a pre-determined one-in-n row pattern
// (FinFlex-style, Fig. 1(b)): no row assignment problem is solved — the row
// structure comes from the pattern — and cells are bound to pattern rows
// with a capacity-aware nearest-row assignment, then legalized fence-aware.
// Pass a nil pattern to auto-fit the sparsest feasible one. Like Run, it
// stages the assignment and legalization behind the solve and legalize
// spans and fault points, and returns a panic as an ErrPanic-classed error.
func (r *Runner) RunFinFlex(ctx context.Context, pattern finflex.Pattern, withRoute bool) (res *Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, errs.FromPanic(rec, "flow: %v", FlowFinFlex)
		}
	}()
	ctx = r.withPool(ctx)
	d := r.Base.Clone()
	met := Metrics{Flow: FlowFinFlex, NumMinority: len(d.MinorityInstances())}
	start := time.Now()

	// Row structure comes from the pattern; assignment is capacity-aware
	// nearest-row binding.
	rapStart := time.Now()
	var asg *finflex.Assignment
	if err := stage(ctx, "solve", func(ctx context.Context) error {
		if err := fault.Inject(ctx, PointSolve); err != nil {
			return fmt.Errorf("finflex assignment: %w", err)
		}
		var ms *rowgrid.MixedStack
		var err error
		if pattern == nil {
			if pattern, ms, err = finflex.FitPattern(d, r.Tech, 0); err != nil {
				return err
			}
		} else if ms, err = finflex.Stack(d.Die, r.Tech, pattern); err != nil {
			return err
		}
		if asg, err = finflex.Assign(d, ms); err != nil {
			return fmt.Errorf("finflex assignment: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	met.RAPTime = time.Since(rapStart)
	met.NminR = len(asg.Stack.PairsOf(tech.Tall7p5T))

	if err := lefdef.Revert(d); err != nil {
		return nil, err
	}
	legalStart := time.Now()
	if err := stage(ctx, "legalize", func(ctx context.Context) error {
		if err := fault.Inject(ctx, PointLegalize); err != nil {
			return fmt.Errorf("finflex legalization: %w", err)
		}
		if err := legalize.FenceAware(ctx, d, asg.Stack, asg.SeedY, r.Cfg.FencePasses); err != nil {
			return fmt.Errorf("finflex legalization (pattern %v): %w", pattern, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	met.LegalTime = time.Since(legalStart)
	return r.finish(ctx, d, asg.Stack, met, start, withRoute)
}
