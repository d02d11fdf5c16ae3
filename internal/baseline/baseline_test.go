package baseline

import (
	"math"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func placedDesign(t *testing.T, scale float64) (*netlist.Design, rowgrid.PairGrid) {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = scale
	d, err := synth.Generate(tc, lib, synth.TableII()[0], opt)
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
	return d, g
}

func TestAssignRowsBasics(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	res, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// NminR matches the width/fill formula.
	var wsum int64
	for _, i := range d.MinorityInstances() {
		wsum += d.Insts[i].TrueMaster().Width
	}
	want := int(math.Ceil(float64(wsum) / (float64(2*g.Width()) * 0.8)))
	if res.NminR != want {
		t.Errorf("NminR = %d, want %d", res.NminR, want)
	}
	tall := 0
	for _, h := range res.Heights {
		if h == tech.Tall7p5T {
			tall++
		}
	}
	if tall != res.NminR {
		t.Errorf("tall pairs %d != NminR %d", tall, res.NminR)
	}
	if res.Stack == nil || res.Stack.NumPairs() != g.N {
		t.Fatal("stack missing or wrong size")
	}
}

func TestAssignRowsCoversAllMinorityCells(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	res, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range d.MinorityInstances() {
		pair, ok := res.CellPair[i]
		if !ok {
			t.Fatalf("minority cell %d unassigned", i)
		}
		if res.Heights[pair] != tech.Tall7p5T {
			t.Fatalf("cell %d on short pair %d", i, pair)
		}
		if res.SeedY[i] != res.Stack.Y[pair] {
			t.Fatalf("cell %d seed mismatch", i)
		}
	}
}

func TestAssignRowsGloballyFeasible(t *testing.T) {
	// The baseline is capacity-naive per row (faithful to [10]) but its
	// fill-based N_minR sizing must keep the assignment globally feasible:
	// total minority width fits the chosen minority rows.
	d, g := placedDesign(t, 0.03)
	res, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	capacity := 2 * g.Width()
	var total int64
	for i := range res.CellPair {
		total += d.Insts[i].TrueMaster().Width
	}
	if total > int64(res.NminR)*capacity {
		t.Errorf("total minority width %d exceeds %d rows x %d", total, res.NminR, capacity)
	}
}

func TestAssignRowsDeterministic(t *testing.T) {
	d, g := placedDesign(t, 0.015)
	a, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.NminR != b.NminR {
		t.Fatal("NminR differs")
	}
	for i, r := range a.CellPair {
		if b.CellPair[i] != r {
			t.Fatalf("cell %d pair differs", i)
		}
	}
}

func TestAssignRowsNoMinority(t *testing.T) {
	d, g := placedDesign(t, 0.01)
	// Strip minority status by swapping every 7.5T master for its 6T twin.
	for _, i := range d.MinorityInstances() {
		in := d.Insts[i]
		in.Source = d.Lib.Variant(in.Source, tech.Short6T)
	}
	res, err := AssignRows(d, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CellPair) != 0 {
		t.Error("no cells should be assigned")
	}
	for _, h := range res.Heights {
		if h != tech.Short6T {
			t.Error("no tall pairs expected")
		}
	}
}

func TestAssignRowsBadOptionsFallbacks(t *testing.T) {
	d, g := placedDesign(t, 0.01)
	res, err := AssignRows(d, g, Options{KMeansIters: -5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NminR < 1 {
		t.Error("NminR must be at least 1")
	}
}
