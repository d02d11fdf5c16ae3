package oracle_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/oracle"
)

// anytimeOptions starves the branch and bound to a single node, so a
// search the root bound cannot close must hand back its incumbent via the
// anytime path. The budget is a node count, not a wall-clock limit, so the
// outcome is deterministic.
func anytimeOptions() core.SolveOptions {
	return core.SolveOptions{
		MaxNodes: 1,
		// Degrade left at the zero value: DegradeAnytime.
	}
}

// TestAnytimeIncumbentPassesOracle is the acceptance differential for the
// degradation ladder: anytime incumbents returned after an exhausted node
// budget must still satisfy the full Eq. 3/4/5 audit, carry an honest
// rung/gap annotation, and the reported gap must actually bound the
// distance to the brute-force optimum.
func TestAnytimeIncumbentPassesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctx := context.Background()
	degraded := 0
	for i := 0; i < 120; i++ {
		m := randomModel(rng, true)
		want, err := oracle.Solve(m)
		if err != nil {
			t.Fatalf("instance %d: oracle on guaranteed-feasible instance: %v", i, err)
		}
		got, err := core.Solve(ctx, m, anytimeOptions())
		if err != nil {
			t.Fatalf("instance %d: anytime solve must not error on a feasible instance: %v", i, err)
		}
		if err := oracle.Feasibility(m, got); err != nil {
			t.Errorf("instance %d: %s-rung solution fails audit: %v", i, got.Stats.Rung, err)
		}
		switch got.Stats.Rung {
		case core.RungILP:
			// A one-node search can still prove optimality (the root bound
			// meets the incumbent); that is not a degradation and must not
			// be labeled as one.
			if got.Stats.Degraded {
				t.Errorf("instance %d: proven-optimal result marked degraded", i)
			}
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Errorf("instance %d: rung %q claims optimality but objective %g != optimum %g",
					i, got.Stats.Rung, got.Objective, want.Objective)
			}
		case core.RungAnytime, core.RungGreedy:
			degraded++
			if !got.Stats.Degraded {
				t.Errorf("instance %d: rung %q not marked degraded", i, got.Stats.Rung)
			}
			if got.Stats.DegradeReason == "" {
				t.Errorf("instance %d: degraded result carries no reason", i)
			}
			if gap := got.Stats.Gap; gap >= 0 {
				// The advertised bound must hold against the true optimum:
				// obj − opt ≤ gap · max(1, |obj|).
				slack := gap*math.Max(1, math.Abs(got.Objective)) + 1e-6
				if got.Objective-want.Objective > slack {
					t.Errorf("instance %d: objective %g exceeds optimum %g by more than the advertised gap %g",
						i, got.Objective, want.Objective, gap)
				}
			}
			// Strict mode on the same starved budget must refuse to hand
			// back the unproven incumbent, and classify the refusal as
			// transient so callers know a bigger budget may succeed.
			strict := anytimeOptions()
			strict.Degrade = core.DegradeStrict
			if _, err := core.Solve(ctx, m, strict); !errors.Is(err, errs.ErrTransient) {
				t.Errorf("instance %d: strict solve on starved budget returned %v, want ErrTransient", i, err)
			}
		default:
			t.Errorf("instance %d: unknown rung %q", i, got.Stats.Rung)
		}
	}
	if degraded == 0 {
		t.Fatal("no instance degraded under a 1-node budget; the test exercises nothing")
	}
	t.Logf("anytime acceptance: %d/120 instances degraded, all audit-clean", degraded)
}
