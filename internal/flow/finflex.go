package flow

import (
	"context"
	"fmt"
	"time"

	"mthplace/internal/finflex"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/tech"
)

// FlowFinFlex tags results of the pre-determined-pattern flow (the paper's
// future-work comparison; not part of Table III).
const FlowFinFlex ID = 6

// RunFinFlex places the testcase on a pre-determined one-in-n row pattern
// (FinFlex-style, Fig. 1(b)): no row assignment problem is solved — the row
// structure comes from the pattern — and cells are bound to pattern rows
// with a capacity-aware nearest-row assignment, then legalized fence-aware.
// Pass a nil pattern to auto-fit the sparsest feasible one.
func (r *Runner) RunFinFlex(ctx context.Context, pattern finflex.Pattern, withRoute bool) (*Result, error) {
	ctx = r.withPool(ctx)
	d := r.Base.Clone()
	met := Metrics{Flow: FlowFinFlex, NumMinority: len(d.MinorityInstances())}
	start := time.Now()

	// Row structure comes from the pattern; assignment is capacity-aware
	// nearest-row binding.
	rapStart := time.Now()
	var asg *finflex.Assignment
	var err error
	if pattern == nil {
		p, ms, ferr := finflex.FitPattern(d, r.Tech, 0)
		if ferr != nil {
			return nil, ferr
		}
		pattern = p
		asg, err = finflex.Assign(d, ms)
	} else {
		ms, ferr := finflex.Stack(d.Die, r.Tech, pattern)
		if ferr != nil {
			return nil, ferr
		}
		asg, err = finflex.Assign(d, ms)
	}
	if err != nil {
		return nil, fmt.Errorf("finflex assignment: %w", err)
	}
	met.RAPTime = time.Since(rapStart)
	met.NminR = len(asg.Stack.PairsOf(tech.Tall7p5T))

	if err := lefdef.Revert(d); err != nil {
		return nil, err
	}
	legalStart := time.Now()
	if err := legalize.FenceAware(ctx, d, asg.Stack, asg.SeedY, r.Cfg.FencePasses); err != nil {
		return nil, fmt.Errorf("finflex legalization (pattern %v): %w", pattern, err)
	}
	met.LegalTime = time.Since(legalStart)
	return r.finish(ctx, d, asg.Stack, met, start, withRoute)
}
