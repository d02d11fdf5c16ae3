package heightswap

import (
	"context"
	"testing"

	"mthplace/internal/check"
	"mthplace/internal/flow"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// legalizedDesign runs Flow 5 on a small testcase to get a legal
// mixed-height placement.
func legalizedDesign(t *testing.T) *flow.Result {
	t.Helper()
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.02
	cfg.Placer.OuterIters = 4
	cfg.Placer.SolveSweeps = 6
	r, err := flow.NewRunner(context.Background(), synth.TableII()[0], cfg) // aes_300: tight clock, violations
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), flow.Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptimizeKeepsLegality(t *testing.T) {
	res := legalizedDesign(t)
	rep, err := Optimize(context.Background(), res.Design, res.Stack, Options{Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(res.Design, res.Stack).Err(); err != nil {
		t.Fatalf("placement illegal after swaps: %v", err)
	}
	if rep.WNSBefore > 0 || rep.WNSAfter > 0 {
		t.Errorf("WNS must be <= 0: %+v", rep)
	}
}

func TestOptimizeNeverDegradesWNS(t *testing.T) {
	res := legalizedDesign(t)
	rep, err := Optimize(context.Background(), res.Design, res.Stack, Options{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNSAfter < rep.WNSBefore-1e-9 {
		t.Errorf("WNS degraded: %.3f -> %.3f", rep.WNSBefore, rep.WNSAfter)
	}
	if rep.SwapsApplied > 0 && rep.Rounds == 0 {
		t.Error("swaps counted without rounds")
	}
}

func TestOptimizeSwapsChangeHeights(t *testing.T) {
	res := legalizedDesign(t)
	before := map[int32]tech.TrackHeight{}
	for i, in := range res.Design.Insts {
		before[int32(i)] = in.TrueHeight()
	}
	rep, err := Optimize(context.Background(), res.Design, res.Stack, Options{Rounds: 2, MaxSwaps: 8})
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i, in := range res.Design.Insts {
		if in.TrueHeight() != before[int32(i)] {
			changed++
		}
	}
	if rep.SwapsApplied > 0 && changed == 0 {
		t.Error("report claims swaps but no heights changed")
	}
	if rep.SwapsApplied == 0 && changed != 0 {
		t.Error("heights changed without accepted swaps")
	}
}

func TestOptimizeZeroRoundsDefaulted(t *testing.T) {
	res := legalizedDesign(t)
	if _, err := Optimize(context.Background(), res.Design, res.Stack, Options{Rounds: -1}); err != nil {
		t.Fatal(err)
	}
}
