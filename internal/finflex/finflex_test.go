package finflex

import (
	"context"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func TestPatternHelpers(t *testing.T) {
	if OneInN(3).String() != "SST" {
		t.Errorf("OneInN(3) = %s", OneInN(3))
	}
	if OneInN(0).String() != "ST" {
		t.Errorf("OneInN clamps to 2, got %s", OneInN(0))
	}
}

func TestStackTilesPattern(t *testing.T) {
	tc := tech.Default()
	// Height for exactly 2 repetitions of (S,T) plus a leftover smaller
	// than a short pair.
	h := 2*(tc.PairHeight(tech.Short6T)+tc.PairHeight(tech.Tall7p5T)) + 100
	die := geom.NewRect(0, 0, 10000, h)
	ms, err := Stack(die, tc, OneInN(2))
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumPairs() != 4 {
		t.Fatalf("pairs = %d, want 4", ms.NumPairs())
	}
	want := []tech.TrackHeight{tech.Short6T, tech.Tall7p5T, tech.Short6T, tech.Tall7p5T}
	for i, h := range want {
		if ms.Heights[i] != h {
			t.Errorf("pair %d = %v, want %v", i, ms.Heights[i], h)
		}
	}
	if _, err := Stack(die, tc, nil); err == nil {
		t.Error("empty pattern must error")
	}
	tiny := geom.NewRect(0, 0, 100, 100)
	if _, err := Stack(tiny, tc, OneInN(2)); err == nil {
		t.Error("tiny die must error")
	}
}

// placedDesign builds a small initial placement in mLEF form.
func placedDesign(t *testing.T, scale float64) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = scale
	d, err := synth.Generate(tc, lib, synth.TableII()[3], opt) // aes_360, ~10% minority
	if err != nil {
		t.Fatal(err)
	}
	m, err := lefdef.ApplyMLEF(d)
	if err != nil {
		t.Fatal(err)
	}
	placer.Global(d, placer.Options{OuterIters: 4, SolveSweeps: 6})
	g := rowgrid.Uniform(d.Die, m.PairH)
	if err := legalize.Uniform(d, g); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFitPatternHostsDesign(t *testing.T) {
	d := placedDesign(t, 0.03)
	p, ms, err := FitPattern(d, d.Tech, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) < 2 {
		t.Fatalf("pattern %v too short", p)
	}
	var demand int64
	for _, i := range d.MinorityInstances() {
		demand += d.Insts[i].TrueMaster().Width
	}
	if capacity := int64(len(ms.PairsOf(tech.Tall7p5T))) * 2 * ms.Width(); demand > capacity {
		t.Errorf("minority demand %d exceeds the pattern's minority capacity %d", demand, capacity)
	}
}

func TestAssignRespectsCapacityAndCoversAll(t *testing.T) {
	d := placedDesign(t, 0.03)
	_, ms, err := FitPattern(d, d.Tech, 0)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Assign(d, ms)
	if err != nil {
		t.Fatal(err)
	}
	capacity := 2 * ms.Width()
	load := map[int]int64{}
	for _, i := range d.MinorityInstances() {
		p, ok := asg.CellPair[i]
		if !ok {
			t.Fatalf("minority cell %d unassigned", i)
		}
		if ms.Heights[p] != tech.Tall7p5T {
			t.Fatalf("cell %d on short pair", i)
		}
		if asg.SeedY[i] != ms.Y[p] {
			t.Fatalf("seed mismatch for %d", i)
		}
		load[p] += d.Insts[i].TrueMaster().Width
	}
	for p, l := range load {
		if l > capacity {
			t.Errorf("pair %d overloaded: %d > %d", p, l, capacity)
		}
	}
}

func TestAssignFailsWithoutTallPairs(t *testing.T) {
	d := placedDesign(t, 0.02)
	allShort, err := Stack(d.Die, d.Tech, Pattern{tech.Short6T})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Assign(d, allShort); err == nil {
		t.Error("no tall pairs must error for a design with minority cells")
	}
}

func TestEndToEndFinFlexLegal(t *testing.T) {
	d := placedDesign(t, 0.03)
	_, ms, err := FitPattern(d, d.Tech, 0)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Assign(d, ms)
	if err != nil {
		t.Fatal(err)
	}
	if err := lefdef.Revert(d); err != nil {
		t.Fatal(err)
	}
	if err := legalize.FenceAware(context.Background(), d, ms, asg.SeedY, 2); err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(d, ms).Err(); err != nil {
		t.Fatalf("finflex placement illegal: %v", err)
	}
}
