package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// placedDesign generates a small testcase, applies mLEF and produces the
// unconstrained initial placement. It accepts testing.TB so benchmarks can
// share the fixture.
func placedDesign(t testing.TB, scale float64) (*netlist.Design, rowgrid.PairGrid) {
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
	placer.Global(d, placer.Options{OuterIters: 5, SolveSweeps: 8})
	g := rowgrid.Uniform(d.Die, m.PairH)
	if err := legalize.Uniform(d, g); err != nil {
		t.Fatal(err)
	}
	return d, g
}

// nMinRFor computes a capacity-feasible minority pair count the way the
// baseline (and hence the flows) do: width demand at 80% fill, clamped to
// the restack budget.
func nMinRFor(d *netlist.Design, g rowgrid.PairGrid) int {
	var wsum int64
	for _, i := range d.MinorityInstances() {
		wsum += d.Insts[i].TrueMaster().Width
	}
	n := int(math.Ceil(float64(wsum) / (float64(2*g.Width()) * 0.8)))
	if n < 1 {
		n = 1
	}
	if mx := rowgrid.MaxMinorityPairs(d.Die, g.N, d.Tech); n > mx {
		n = mx
	}
	return n
}

func TestBuildClustersBasics(t *testing.T) {
	d, _ := placedDesign(t, 0.02)
	nMin := len(d.MinorityInstances())
	cl, err := BuildClusters(context.Background(), d, 0.2, 20)
	if err != nil {
		t.Fatal(err)
	}
	wantK := int(math.Round(0.2 * float64(nMin)))
	if cl.N() > wantK || cl.N() == 0 {
		t.Errorf("clusters = %d, want <= %d and > 0", cl.N(), wantK)
	}
	// Every minority cell appears exactly once; widths are original widths.
	seen := map[int32]bool{}
	var totalW int64
	for c := 0; c < cl.N(); c++ {
		if len(cl.Members[c]) == 0 || cl.Width[c] <= 0 {
			t.Fatalf("cluster %d empty or zero width", c)
		}
		var w int64
		for _, i := range cl.Members[c] {
			if seen[i] {
				t.Fatalf("cell %d in two clusters", i)
			}
			seen[i] = true
			w += d.Insts[i].TrueMaster().Width
		}
		if w != cl.Width[c] {
			t.Fatalf("cluster %d width %d != member sum %d", c, cl.Width[c], w)
		}
		totalW += w
	}
	if len(seen) != nMin {
		t.Errorf("clustered %d of %d minority cells", len(seen), nMin)
	}
}

func TestBuildClustersResolutionOne(t *testing.T) {
	d, _ := placedDesign(t, 0.01)
	nMin := len(d.MinorityInstances())
	cl, err := BuildClusters(context.Background(), d, 1.0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if cl.N() != nMin {
		t.Errorf("s=1 must give one cell per cluster: %d != %d", cl.N(), nMin)
	}
	for c := 0; c < cl.N(); c++ {
		if len(cl.Members[c]) != 1 {
			t.Errorf("cluster %d has %d members", c, len(cl.Members[c]))
		}
	}
}

func TestBuildClustersRejectsBadS(t *testing.T) {
	d, _ := placedDesign(t, 0.01)
	if _, err := BuildClusters(context.Background(), d, 0, 10); err == nil {
		t.Error("s=0 must error")
	}
	if _, err := BuildClusters(context.Background(), d, -1, 10); err == nil {
		t.Error("s<0 must error")
	}
}

func TestNetDeltaHPWL(t *testing.T) {
	others := geom.NewRect(0, 0, 100, 100)
	// Own pin inside the box: moving down grows the box by |dy| beyond it.
	if got := netDeltaHPWL(others, true, 50, 50, 50, 50, -30); got != 0 {
		t.Errorf("move within box must cost 0, got %d", got)
	}
	if got := netDeltaHPWL(others, true, 50, 50, 50, 50, -80); got != 30 {
		t.Errorf("move 30 below box must cost 30, got %d", got)
	}
	if got := netDeltaHPWL(others, true, 50, 50, 50, 50, 130); got != 80 {
		t.Errorf("move 80 above box must cost 80, got %d", got)
	}
	// Net with no external pins never changes HPWL.
	if got := netDeltaHPWL(geom.Rect{}, false, 0, 10, 0, 10, 500); got != 0 {
		t.Errorf("internal net must cost 0, got %d", got)
	}
}

func TestBuildModelCostShape(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	nMinR := nMinRFor(d, g)
	m, err := BuildModel(context.Background(), d, g, cl, nMinR, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cost) != cl.N() {
		t.Fatalf("cost rows %d != clusters %d", len(m.Cost), cl.N())
	}
	for c := range m.Cost {
		if len(m.Cost[c]) != g.N {
			t.Fatalf("cost cols %d != pairs %d", len(m.Cost[c]), g.N)
		}
		// The cost must be lowest near the cluster's own y and grow toward
		// the die edges (unimodal-ish; we check edge > min).
		minC := math.Inf(1)
		for _, v := range m.Cost[c] {
			if v < 0 {
				t.Fatalf("negative f_cr %f", v)
			}
			minC = math.Min(minC, v)
		}
		if m.Cost[c][0] < minC || m.Cost[c][g.N-1] < minC {
			t.Fatalf("edge cost below minimum")
		}
	}
}

func TestBuildModelAlphaExtremes(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, _ := BuildClusters(context.Background(), d, 0.3, 20)
	nMinR := nMinRFor(d, g)
	pureDisp, err := BuildModel(context.Background(), d, g, cl, nMinR, CostParams{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	// α=1: cost is exactly summed |dy|, so for a cluster the minimum must
	// be at a pair whose center is nearest the width-weighted... at least
	// verify symmetry: cost difference between adjacent rows equals the
	// summed dy sign changes — here just check it is piecewise monotone
	// away from its argmin.
	for c := 0; c < cl.N(); c++ {
		arg := 0
		for r := range pureDisp.Cost[c] {
			if pureDisp.Cost[c][r] < pureDisp.Cost[c][arg] {
				arg = r
			}
		}
		for r := 1; r <= arg; r++ {
			if pureDisp.Cost[c][r] > pureDisp.Cost[c][r-1]+1e-9 {
				t.Fatalf("disp cost not decreasing toward argmin (cluster %d row %d)", c, r)
			}
		}
		for r := arg + 1; r < len(pureDisp.Cost[c]); r++ {
			if pureDisp.Cost[c][r] < pureDisp.Cost[c][r-1]-1e-9 {
				t.Fatalf("disp cost not increasing past argmin (cluster %d row %d)", c, r)
			}
		}
	}
	if _, err := BuildModel(context.Background(), d, g, cl, nMinR, CostParams{Alpha: 2}); err == nil {
		t.Error("alpha > 1 must error")
	}
	if _, err := BuildModel(context.Background(), d, g, cl, 0, DefaultCostParams()); err == nil {
		t.Error("N_minR = 0 must error")
	}
}

func solveBoth(t *testing.T, scale float64, s float64) (*Model, *Assignment, *Assignment) {
	t.Helper()
	d, g := placedDesign(t, scale)
	cl, err := BuildClusters(context.Background(), d, s, 20)
	if err != nil {
		t.Fatal(err)
	}
	nMinR := nMinRFor(d, g)
	m, err := BuildModel(context.Background(), d, g, cl, nMinR, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := SolveGreedy(m)
	if err != nil {
		t.Fatal(err)
	}
	ilp, err := Solve(context.Background(), m, SolveOptions{CandidateRows: 0, MaxNodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	return m, greedy, ilp
}

func assertFeasible(t *testing.T, m *Model, a *Assignment) {
	t.Helper()
	if len(a.MinorityPairs) != m.NminR {
		t.Fatalf("minority pairs %d != NminR %d", len(a.MinorityPairs), m.NminR)
	}
	inSet := map[int]bool{}
	for _, r := range a.MinorityPairs {
		inSet[r] = true
	}
	load := map[int]int64{}
	for c, r := range a.ClusterPair {
		if !inSet[r] {
			t.Fatalf("cluster %d assigned to non-minority pair %d", c, r)
		}
		load[r] += m.Clusters.Width[c]
	}
	for r, l := range load {
		if l > m.Cap {
			t.Fatalf("pair %d load %d exceeds capacity %d", r, l, m.Cap)
		}
	}
}

func TestGreedyFeasible(t *testing.T) {
	m, greedy, _ := solveBoth(t, 0.015, 0.3)
	assertFeasible(t, m, greedy)
	if greedy.Stats.Method != "greedy" {
		t.Error("method tag wrong")
	}
}

func TestILPNoWorseThanGreedy(t *testing.T) {
	m, greedy, ilp := solveBoth(t, 0.015, 0.3)
	assertFeasible(t, m, ilp)
	if ilp.Objective > greedy.Objective+1e-6 {
		t.Errorf("ILP objective %f worse than greedy %f", ilp.Objective, greedy.Objective)
	}
	if ilp.Stats.Method != "rap" {
		t.Errorf("method = %q", ilp.Stats.Method)
	}
}

func TestILPOptimalOnTinyInstance(t *testing.T) {
	// Hand-built model: 2 clusters, 3 rows, NminR = 1; both clusters fit in
	// one row; optimum is the row minimising the summed cost.
	m := &Model{
		Clusters: &Clusters{
			Members: [][]int32{{0}, {1}},
			Width:   []int64{100, 100},
			CenterX: []float64{0, 0},
			CenterY: []float64{100, 200},
		},
		NR:          3,
		NminR:       1,
		Cap:         250,
		Cost:        [][]float64{{5, 1, 9}, {4, 2, 8}},
		PairCenterY: []int64{0, 100, 200},
	}
	ilp, err := Solve(context.Background(), m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ilp.Objective != 3 { // row 1: 1 + 2
		t.Errorf("objective = %f, want 3", ilp.Objective)
	}
	if len(ilp.MinorityPairs) != 1 || ilp.MinorityPairs[0] != 1 {
		t.Errorf("minority pairs = %v, want [1]", ilp.MinorityPairs)
	}
}

func TestILPRespectsCapacityOverGreedyChoice(t *testing.T) {
	// Both clusters prefer row 1, but they cannot share it; NminR = 2.
	m := &Model{
		Clusters: &Clusters{
			Members: [][]int32{{0}, {1}},
			Width:   []int64{100, 100},
			CenterX: []float64{0, 0},
			CenterY: []float64{100, 100},
		},
		NR:          3,
		NminR:       2,
		Cap:         150,
		Cost:        [][]float64{{5, 1, 9}, {4, 1, 8}},
		PairCenterY: []int64{0, 100, 200},
	}
	ilp, err := Solve(context.Background(), m, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, m, ilp)
	// One cluster takes row 1, the other its next-best; best total = 1+4 = 5.
	if ilp.Objective != 5 {
		t.Errorf("objective = %f, want 5", ilp.Objective)
	}
}

// TestSolveGreedyBackend: BackendGreedy returns the greedy heuristic's
// answer undegraded, and Solve rejects a backend ValidBackend rejects.
func TestSolveGreedyBackend(t *testing.T) {
	m, greedy, _ := solveBoth(t, 0.01, 0.5)
	got, err := Solve(context.Background(), m, SolveOptions{Backend: BackendGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Method != "greedy" || got.Stats.Degraded {
		t.Errorf("greedy backend stats = %+v, want an undegraded greedy answer", got.Stats)
	}
	if got.Objective != greedy.Objective {
		t.Error("greedy backend objective differs from SolveGreedy")
	}
	if _, err := Solve(context.Background(), m, SolveOptions{Backend: "milp"}); err == nil {
		t.Error("Solve accepted the removed milp backend")
	}
}

func TestValidBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", true},
		{BackendRAP, true},
		{BackendGreedy, true},
		{"milp", false},
		{"RAP", false},
		{"cplex", false},
	} {
		err := ValidBackend(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("ValidBackend(%q) = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "want rap or greedy") {
			t.Errorf("ValidBackend(%q) error %q does not list the valid backends", tc.name, err)
		}
	}
}

// TestAssignRowsEndToEnd runs the four stages of the proposed row
// assignment, as flow.Runner stages them.
func TestAssignRowsEndToEnd(t *testing.T) {
	ctx := context.Background()
	d, g := placedDesign(t, 0.02)
	nMinR := nMinRFor(d, g)
	opt := DefaultOptions()
	cl, err := BuildClusters(ctx, d, opt.S, opt.KMeansIters)
	if err != nil {
		t.Fatal(err)
	}
	model, err := BuildModel(ctx, d, g, cl, nMinR, opt.Cost)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(ctx, model, opt.Solve)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Finalize(d, g, model, cl, sol)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stack.NumPairs() != g.N {
		t.Fatalf("stack pairs %d != grid pairs %d", ra.Stack.NumPairs(), g.N)
	}
	tallPairs := ra.Stack.PairsOf(tech.Tall7p5T)
	if len(tallPairs) != nMinR {
		t.Errorf("tall pairs %d != NminR %d", len(tallPairs), nMinR)
	}
	// Every minority cell has a seed at the bottom of a tall pair.
	for _, i := range d.MinorityInstances() {
		pair, ok := ra.CellPair[i]
		if !ok {
			t.Fatalf("minority cell %d unassigned", i)
		}
		if ra.Heights[pair] != tech.Tall7p5T {
			t.Fatalf("cell %d assigned to short pair %d", i, pair)
		}
		if ra.SeedY[i] != ra.Stack.Y[pair] {
			t.Fatalf("cell %d seed y %d != pair bottom %d", i, ra.SeedY[i], ra.Stack.Y[pair])
		}
	}
}

func TestCandidatePruningStillFeasible(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, _ := BuildClusters(context.Background(), d, 0.3, 20)
	nMinR := nMinRFor(d, g)
	m, err := BuildModel(context.Background(), d, g, cl, nMinR, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Solve(context.Background(), m, SolveOptions{CandidateRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertFeasible(t, m, pruned)
	full, err := Solve(context.Background(), m, SolveOptions{CandidateRows: 0})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Objective < full.Objective-1e-6 {
		t.Errorf("pruned objective %f beats full %f — impossible", pruned.Objective, full.Objective)
	}
}
