package flow

import (
	"context"
	"strings"
	"testing"
	"time"

	"mthplace/internal/check"
	"mthplace/internal/geom"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func testConfig(scale float64) Config {
	cfg := DefaultConfig()
	cfg.Synth.Scale = scale
	cfg.Placer.OuterIters = 5
	cfg.Placer.SolveSweeps = 8
	return cfg
}

func newRunner(t *testing.T, scale float64) *Runner {
	t.Helper()
	r, err := NewRunner(context.Background(), synth.TableII()[0], testConfig(scale))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerPreparation(t *testing.T) {
	r := newRunner(t, 0.02)
	if r.NminR < 1 {
		t.Fatalf("NminR = %d", r.NminR)
	}
	if err := check.PlacementUniform(r.Base, r.Grid).Err(); err != nil {
		t.Fatalf("base placement illegal: %v", err)
	}
	// Base must be in mLEF form.
	for _, in := range r.Base.Insts {
		if in.Source == nil {
			t.Fatal("base design must be in mLEF form")
		}
	}
}

func TestAllFlowsPostPlacement(t *testing.T) {
	r := newRunner(t, 0.02)
	results, err := r.RunAll(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results", len(results))
	}
	for id, res := range results {
		m := res.Metrics
		if m.Flow != id {
			t.Errorf("%v: flow tag mismatch", id)
		}
		if m.HPWL <= 0 {
			t.Errorf("%v: HPWL = %d", id, m.HPWL)
		}
		if id != Flow1 {
			if m.Displacement <= 0 {
				t.Errorf("%v: displacement = %d", id, m.Displacement)
			}
			if res.Stack == nil {
				t.Errorf("%v: missing stack", id)
				continue
			}
			if err := check.Placement(res.Design, res.Stack).Err(); err != nil {
				t.Errorf("%v: illegal placement: %v", id, err)
			}
			// All row-constraint flows share the same N_minR (fairness).
			tall := len(res.Stack.PairsOf(tech.Tall7p5T))
			if tall != r.NminR {
				t.Errorf("%v: %d tall pairs, want %d", id, tall, r.NminR)
			}
		}
	}
	// The original designs must not have been mutated across flows: each
	// result owns a distinct clone.
	if results[Flow2].Design == results[Flow4].Design {
		t.Error("flows share a design object")
	}
}

func TestFlowQualityOrdering(t *testing.T) {
	r := newRunner(t, 0.03)
	results, err := r.RunAll(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Row-constraint flows cost HPWL vs the unconstrained Flow 1.
	f1 := results[Flow1].Metrics.HPWL
	for _, id := range []ID{Flow2, Flow4} {
		if results[id].Metrics.HPWL < f1 {
			t.Logf("note: %v HPWL %d below Flow1 %d (possible but unusual)",
				id, results[id].Metrics.HPWL, f1)
		}
	}
	// Flow 4 (our assignment, same legalization) must not be much worse
	// than Flow 2 on displacement; the paper reports it is better on
	// average. Allow slack for one small testcase.
	d2 := results[Flow2].Metrics.Displacement
	d4 := results[Flow4].Metrics.Displacement
	if d4 > 2*d2 {
		t.Errorf("Flow4 displacement %d far worse than Flow2 %d", d4, d2)
	}
	// Fence-aware flows ignore the initial placement: displacement larger.
	if results[Flow5].Metrics.Displacement < results[Flow4].Metrics.Displacement {
		t.Logf("note: Flow5 displacement below Flow4 (unusual but not wrong)")
	}
}

func TestFlowsWithRouting(t *testing.T) {
	r := newRunner(t, 0.02)
	for _, id := range []ID{Flow1, Flow2, Flow5} {
		res, err := r.Run(context.Background(), id, true)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		m := res.Metrics
		if !m.Routed || m.RoutedWL <= 0 {
			t.Errorf("%v: no routed wirelength", id)
		}
		if m.PowerMW <= 0 {
			t.Errorf("%v: no power", id)
		}
		if m.WNSps > 0 || m.TNSps > 0 {
			t.Errorf("%v: positive negative-slack? wns=%f tns=%f", id, m.WNSps, m.TNSps)
		}
		if m.RoutedWL < m.HPWL {
			t.Errorf("%v: routed WL %d below HPWL %d", id, m.RoutedWL, m.HPWL)
		}
	}
}

func TestFlowDeterminism(t *testing.T) {
	a := newRunner(t, 0.015)
	b := newRunner(t, 0.015)
	ra, err := a.Run(context.Background(), Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background(), Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics.HPWL != rb.Metrics.HPWL || ra.Metrics.Displacement != rb.Metrics.Displacement {
		t.Error("Flow5 not deterministic across runners")
	}
}

func TestUnknownFlow(t *testing.T) {
	r := newRunner(t, 0.01)
	if _, err := r.Run(context.Background(), ID(9), false); err == nil {
		t.Error("unknown flow must error")
	}
}

func TestILPFlowsReportSolverStats(t *testing.T) {
	r := newRunner(t, 0.02)
	res, err := r.Run(context.Background(), Flow4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.NumClusters <= 0 {
		t.Error("Flow4 must report cluster count")
	}
	if res.Metrics.ILPVars <= 0 {
		t.Error("Flow4 must report ILP variable count")
	}
	if res.Metrics.RAPTime <= 0 {
		t.Error("Flow4 must report RAP time")
	}
}

// TestFinishRejectsIllegalPlacement drives the flows' shared epilogue with a
// Flow 5 result made illegal after the fact: the legality audit must refuse
// it and name the broken invariant.
func TestFinishRejectsIllegalPlacement(t *testing.T) {
	r := newRunner(t, 0.02)
	ctx := context.Background()
	res, err := r.Run(ctx, Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	d, stack := res.Design, res.Stack
	if _, err := r.finish(ctx, d, stack, res.Metrics, time.Now(), false); err != nil {
		t.Fatalf("legal Flow 5 result rejected: %v", err)
	}
	// Another instance of the same track-height as inst 0.
	other := -1
	for j, in := range d.Insts {
		if j != 0 && in.TrueHeight() == d.Insts[0].TrueHeight() {
			other = j
			break
		}
	}
	if other < 0 {
		t.Fatal("no second instance of inst 0's track-height")
	}
	for _, tc := range []struct {
		name, invariant string
		corrupt         func()
	}{
		{"off its row", "[row-height]", func() { d.Insts[0].Pos.Y++ }},
		{"overlapping", "[overlap]", func() { d.Insts[other].Pos = d.Insts[0].Pos }},
	} {
		saved := []geom.Point{d.Insts[0].Pos, d.Insts[other].Pos}
		tc.corrupt()
		_, err := r.finish(ctx, d, stack, res.Metrics, time.Now(), false)
		if err == nil {
			t.Errorf("%s: illegal placement accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.invariant) {
			t.Errorf("%s: error does not name %s: %v", tc.name, tc.invariant, err)
		}
		d.Insts[0].Pos, d.Insts[other].Pos = saved[0], saved[1]
	}
}
