package legalize

import (
	"context"
	"testing"
	"testing/quick"

	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func TestAbacusSingleRowPacking(t *testing.T) {
	// Three cells wanting the same x must pack without overlap around it.
	cells := []Cell{
		{ID: 0, TargetX: 540, TargetY: 0, W: 108},
		{ID: 1, TargetX: 540, TargetY: 0, W: 108},
		{ID: 2, TargetX: 540, TargetY: 0, W: 108},
	}
	rows := []Row{{Y: 0, X0: 0, X1: 10800}}
	res, err := Abacus(cells, rows, 54)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[int64]bool{}
	for id, p := range res {
		if p.Y != 0 {
			t.Errorf("cell %d not in the row", id)
		}
		if p.X%54 != 0 {
			t.Errorf("cell %d off grid", id)
		}
		for x := p.X; x < p.X+108; x += 54 {
			if spans[x] {
				t.Fatalf("overlap at %d", x)
			}
			spans[x] = true
		}
	}
}

func TestAbacusExactTargetWhenFree(t *testing.T) {
	cells := []Cell{{ID: 7, TargetX: 1080, TargetY: 216, W: 54}}
	rows := []Row{{Y: 0, X0: 0, X1: 5400}, {Y: 216, X0: 0, X1: 5400}}
	res, err := Abacus(cells, rows, 54)
	if err != nil {
		t.Fatal(err)
	}
	if res[7] != (geom.Point{X: 1080, Y: 216}) {
		t.Errorf("free cell moved: %v", res[7])
	}
}

func TestAbacusRowOverflowSpills(t *testing.T) {
	// Row 0 fits one cell of 2 sites (cap 2); the second must spill to row 1.
	cells := []Cell{
		{ID: 0, TargetX: 0, TargetY: 0, W: 108},
		{ID: 1, TargetX: 0, TargetY: 0, W: 108},
	}
	rows := []Row{{Y: 0, X0: 0, X1: 108}, {Y: 216, X0: 0, X1: 108}}
	res, err := Abacus(cells, rows, 54)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Y == res[1].Y {
		t.Errorf("both cells in one overfull row: %v %v", res[0], res[1])
	}
}

func TestAbacusInfeasible(t *testing.T) {
	cells := []Cell{{ID: 0, TargetX: 0, TargetY: 0, W: 540}}
	rows := []Row{{Y: 0, X0: 0, X1: 108}}
	if _, err := Abacus(cells, rows, 54); err == nil {
		t.Fatal("oversized cell must fail")
	}
	if _, err := Abacus(cells, nil, 54); err == nil {
		t.Fatal("no rows must fail")
	}
	if _, err := Abacus(nil, nil, 54); err != nil {
		t.Fatal("empty problem must succeed")
	}
	if _, err := Abacus(cells, rows, 0); err == nil {
		t.Fatal("zero site width must fail")
	}
}

// Property: random legalization instances produce overlap-free on-grid
// placements of every cell.
func TestAbacusLegalityProperty(t *testing.T) {
	f := func(seed int64, nRaw, rRaw uint8) bool {
		n := int(nRaw)%40 + 1
		nr := int(rRaw)%6 + 1
		rng := newRand(seed)
		rows := make([]Row, nr)
		for i := range rows {
			rows[i] = Row{Y: int64(i) * 216, X0: 0, X1: 54 * 200}
		}
		cells := make([]Cell, n)
		for i := range cells {
			cells[i] = Cell{
				ID:      int32(i),
				TargetX: int64(rng.Intn(54 * 180)),
				TargetY: int64(rng.Intn(nr * 216)),
				W:       int64(54 * (1 + rng.Intn(4))),
			}
		}
		res, err := Abacus(cells, rows, 54)
		if err != nil {
			return false // capacity is ample; must always fit
		}
		if len(res) != n {
			return false
		}
		type span struct{ lo, hi int64 }
		byRow := map[int64][]span{}
		for i := range cells {
			p, ok := res[cells[i].ID]
			if !ok || p.X%54 != 0 || p.X < 0 || p.X+cells[i].W > 54*200 {
				return false
			}
			byRow[p.Y] = append(byRow[p.Y], span{p.X, p.X + cells[i].W})
		}
		for _, spans := range byRow {
			for a := range spans {
				for b := a + 1; b < len(spans); b++ {
					if spans[a].lo < spans[b].hi && spans[b].lo < spans[a].hi {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// mixedDesign builds a small placed design in mLEF form plus its grids.
func mixedDesign(t *testing.T) (*netlist.Design, rowgrid.PairGrid, *rowgrid.MixedStack) {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = 0.02
	d, err := synth.Generate(tc, lib, synth.TableII()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lefdef.ApplyMLEF(d)
	if err != nil {
		t.Fatal(err)
	}
	placer.Global(d, placer.Options{OuterIters: 4, SolveSweeps: 8})
	g := rowgrid.Uniform(d.Die, m.PairH)
	if err := Uniform(d, g); err != nil {
		t.Fatal(err)
	}
	if err := check.PlacementUniform(d, g).Err(); err != nil {
		t.Fatalf("uniform placement illegal: %v", err)
	}
	// Build a mixed stack with enough minority pairs for the 7.5T area.
	if err := lefdef.Revert(d); err != nil {
		t.Fatal(err)
	}
	nPairs := g.N
	maxMin := rowgrid.MaxMinorityPairs(d.Die, nPairs, tc)
	var minArea, rowArea float64
	for _, in := range d.Insts {
		if in.TrueHeight() == tech.Tall7p5T {
			minArea += float64(in.Width())
		}
	}
	rowArea = float64(d.Die.W()) * 2 * 0.85 // two single rows per pair, 85% fill
	need := int(minArea/rowArea) + 1
	if need > maxMin {
		t.Fatalf("test die cannot host %d minority pairs (max %d)", need, maxMin)
	}
	hs := make([]tech.TrackHeight, nPairs)
	for i := 0; i < need; i++ {
		hs[(i*nPairs)/need] = tech.Tall7p5T
	}
	ms, err := rowgrid.Stack(d.Die, hs, tc)
	if err != nil {
		t.Fatal(err)
	}
	return d, g, ms
}

func TestRowConstraintLegalization(t *testing.T) {
	d, _, ms := mixedDesign(t)
	if err := RowConstraint(context.Background(), d, ms); err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(d, ms).Err(); err != nil {
		t.Fatalf("row-constraint result illegal: %v", err)
	}
}

func TestFenceAwareLegalization(t *testing.T) {
	d, _, ms := mixedDesign(t)
	// Seed: all minority cells to the first tall pair.
	seed := map[int32]int64{}
	tall := ms.PairsOf(tech.Tall7p5T)
	for _, i := range d.MinorityInstances() {
		seed[i] = ms.Y[tall[int(i)%len(tall)]]
	}
	if err := FenceAware(context.Background(), d, ms, seed, 2); err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(d, ms).Err(); err != nil {
		t.Fatalf("fence-aware result illegal: %v", err)
	}
}

func TestFenceAwareImprovesHPWLOverSeed(t *testing.T) {
	d, _, ms := mixedDesign(t)
	before := d.TotalHPWL()
	if err := FenceAware(context.Background(), d, ms, nil, 3); err != nil {
		t.Fatal(err)
	}
	after := d.TotalHPWL()
	// Median improvement should keep HPWL in the same ballpark or better
	// than the unconstrained placement; allow at most 2x degradation (the
	// row-constraint must cost something but not explode).
	if after > before*2 {
		t.Errorf("HPWL exploded: %d -> %d", before, after)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	d, _, ms := mixedDesign(t)
	if err := RowConstraint(context.Background(), d, ms); err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(d, ms).Err(); err != nil {
		t.Fatalf("row-constraint result illegal: %v", err)
	}
	// requireViolation asserts that the auditor flags inst under the named
	// invariant class, not merely that it fails.
	requireViolation := func(what, invariant string, inst int) {
		t.Helper()
		rep := check.Placement(d, ms)
		for _, v := range rep.Violations {
			if v.Invariant == invariant && v.Inst == inst {
				return
			}
		}
		t.Errorf("%s: want a %q violation on inst %d, got %v", what, invariant, inst, rep.Violations)
	}
	// Off-grid x.
	save := d.Insts[0].Pos
	d.Insts[0].Pos.X++
	requireViolation("off-grid x", "site-grid", 0)
	d.Insts[0].Pos = save
	// Wrong-height row.
	wrongY := ms.Y[ms.PairsOf(d.Insts[0].TrueHeight().Other())[0]]
	d.Insts[0].Pos.Y = wrongY
	requireViolation("wrong-height row", "row-height", 0)
	d.Insts[0].Pos = save
	// Overlap: the overlap scan names the later of the two cells in x
	// order, and ties on x break by instance index.
	d.Insts[1].Pos = d.Insts[0].Pos
	d.Insts[1].Master = d.Insts[0].Master
	requireViolation("overlap", "overlap", 1)
}
