package oracle_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/golden"
	"mthplace/internal/oracle"
	"mthplace/internal/synth"
)

// exactOptions disable every approximation knob of the production solver:
// no candidate-row pruning, an effectively unlimited node budget, and the
// default (tight) gap — on integer-valued costs the result must be the true
// optimum.
func exactOptions() core.SolveOptions {
	return core.SolveOptions{
		CandidateRows: 0,
		MaxNodes:      5_000_000,
		// Strict forbids the degradation ladder: anything short of the
		// proven optimum is an error, so a silently degraded solve can
		// never slip through the differential comparison.
		Degrade: core.DegradeStrict,
	}
}

// randomModel builds a synthetic RAP instance small enough for the oracle.
// Costs are integer-valued floats so "equal objective" is unambiguous:
// distinct objectives differ by at least 1, far above every solver
// tolerance. slack > 0 guarantees feasibility (cap ≥ ceil(total/NminR) +
// maxW admits any greedy packing); slack == 0 produces tight instances that
// may be infeasible.
func randomModel(rng *rand.Rand, slack bool) *core.Model {
	nC := 1 + rng.Intn(8)
	nR := 2 + rng.Intn(7)
	// Bound the enumeration space: shrink nR until nR^nC stays small.
	for math.Pow(float64(nR), float64(nC)) > float64(2<<20) {
		nR--
	}
	nMinR := 1 + rng.Intn(nR)

	cl := &core.Clusters{
		Members: make([][]int32, nC),
		Width:   make([]int64, nC),
		CenterX: make([]float64, nC),
		CenterY: make([]float64, nC),
	}
	var total, maxW int64
	for c := 0; c < nC; c++ {
		cl.Width[c] = 1 + rng.Int63n(100)
		total += cl.Width[c]
		if cl.Width[c] > maxW {
			maxW = cl.Width[c]
		}
		cl.CenterX[c] = rng.Float64() * 1000
		cl.CenterY[c] = rng.Float64() * float64(nR) * 1000
	}
	capW := (total + int64(nMinR) - 1) / int64(nMinR)
	if capW < maxW {
		capW = maxW
	}
	if slack {
		capW += maxW
	}
	m := &core.Model{
		Clusters:    cl,
		NR:          nR,
		NminR:       nMinR,
		Cap:         capW,
		Cost:        make([][]float64, nC),
		PairCenterY: make([]int64, nR),
	}
	for r := 0; r < nR; r++ {
		m.PairCenterY[r] = int64(r)*1000 + 500
	}
	for c := 0; c < nC; c++ {
		m.Cost[c] = make([]float64, nR)
		for r := 0; r < nR; r++ {
			m.Cost[c][r] = float64(rng.Intn(1001))
		}
	}
	return m
}

// TestDifferentialExactVsILP is the acceptance differential: on 220
// randomized feasible instances (≤ 8 clusters × 8 rows) the production
// branch-and-bound objective must equal the brute-force optimum exactly,
// and every returned assignment must pass the Eq. 3/4/5 audit.
func TestDifferentialExactVsILP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for i := 0; i < 220; i++ {
		m := randomModel(rng, true)
		want, err := oracle.Solve(m)
		if err != nil {
			t.Fatalf("instance %d: oracle on guaranteed-feasible instance: %v", i, err)
		}
		if err := oracle.Feasibility(m, want); err != nil {
			t.Fatalf("instance %d: oracle's own solution fails audit: %v", i, err)
		}
		got, err := core.Solve(ctx, m, exactOptions())
		if err != nil {
			t.Fatalf("instance %d: Solve: %v", i, err)
		}
		if err := oracle.Feasibility(m, got); err != nil {
			t.Errorf("instance %d: ILP solution fails audit: %v", i, err)
		}
		if !got.Stats.Optimal {
			t.Errorf("instance %d: ILP did not prove optimality (status %v, %d nodes)",
				i, got.Stats.Status, got.Stats.Nodes)
		}
		if math.Abs(got.Objective-want.Objective) > 1e-6 {
			t.Errorf("instance %d (%d clusters × %d rows, N_minR %d): ILP objective %g, oracle optimum %g",
				i, m.Clusters.N(), m.NR, m.NminR, got.Objective, want.Objective)
		}
	}
}

// TestDifferentialGreedyFeasible: the greedy warm start must always produce
// audit-clean solutions with objective no better than the true optimum.
func TestDifferentialGreedyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		m := randomModel(rng, true)
		want, err := oracle.Solve(m)
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", i, err)
		}
		got, err := core.SolveGreedy(m)
		if err != nil {
			t.Fatalf("instance %d: greedy on guaranteed-feasible instance: %v", i, err)
		}
		if err := oracle.Feasibility(m, got); err != nil {
			t.Errorf("instance %d: greedy solution fails audit: %v", i, err)
		}
		if got.Objective < want.Objective-1e-6 {
			t.Errorf("instance %d: greedy objective %g beats proven optimum %g — oracle is wrong",
				i, got.Objective, want.Objective)
		}
	}
}

// TestDifferentialTightCapacity exercises instances at exact capacity,
// where infeasibility is possible. Whenever both solvers produce a
// solution, the objectives must agree; when the oracle proves the instance
// infeasible, the production path must error with ErrInfeasible too.
func TestDifferentialTightCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	solved, infeasible, greedyMiss := 0, 0, 0
	for i := 0; i < 80; i++ {
		m := randomModel(rng, false)
		want, wantErr := oracle.Solve(m)
		got, gotErr := core.Solve(ctx, m, exactOptions())
		switch {
		case wantErr == nil && gotErr == nil:
			solved++
			if !got.Stats.Optimal {
				continue // fell back to greedy after pruning infeasibility; skip
			}
			if math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Errorf("instance %d: ILP objective %g, oracle optimum %g", i, got.Objective, want.Objective)
			}
		case wantErr != nil && gotErr == nil:
			t.Errorf("instance %d: oracle proves infeasible (%v) but ILP returned objective %g",
				i, wantErr, got.Objective)
		case wantErr == nil && gotErr != nil:
			// The production path seeds the ILP from the greedy heuristic and
			// gives up when the heuristic cannot pack — a documented
			// limitation, not an optimality bug. Count it for visibility.
			greedyMiss++
		default:
			infeasible++
			if !errors.Is(gotErr, errs.ErrInfeasible) {
				t.Errorf("instance %d: infeasible instance returned %v, want ErrInfeasible", i, gotErr)
			}
		}
	}
	t.Logf("tight instances: %d solved, %d infeasible, %d greedy misses", solved, infeasible, greedyMiss)
	if solved == 0 {
		t.Error("no tight instance was solved by both solvers — generator is miscalibrated")
	}
}

// goldenModel prepares the clustered RAP model of one golden-corpus design
// the way the flow does: synth → initial placement → k-means → cost model.
func goldenModel(t *testing.T, name string) *core.Model {
	t.Helper()
	ctx := context.Background()
	var spec synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == name {
			spec = s
		}
	}
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = golden.Scale
	cfg.Synth.Seed = golden.Seed
	r, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d := r.Base.Clone()
	cl, err := core.BuildClusters(ctx, d, cfg.Core.S, cfg.Core.KMeansIters)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildModel(ctx, d, r.Grid, cl, r.NminR, cfg.Core.Cost)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenExact is the production solve configuration (candidate pruning
// included) with the budgets lifted to an exact proof under Strict.
func goldenExact(candidateRows int) core.SolveOptions {
	opt := flow.DefaultConfig().Core.Solve
	opt.CandidateRows = candidateRows
	opt.MaxNodes = 2_000_000
	opt.RelGap = 0
	opt.TimeLimit = 0
	opt.Degrade = core.DegradeStrict
	return opt
}

// TestGoldenDesignsSolveExact: on every golden-corpus design the
// production solver proves optimality under Strict, its assignment passes
// the Eq. 3/4/5 audit, and it never costs more than the greedy heuristic.
// On des3_210, widening the candidate rows from the production 12 to all
// of them must never raise the proven optimum: the pruned space is a
// subset, so a larger optimum there would be a false proof.
func TestGoldenDesignsSolveExact(t *testing.T) {
	ctx := context.Background()
	for _, name := range golden.Designs {
		m := goldenModel(t, name)
		got, err := core.Solve(ctx, m, goldenExact(flow.DefaultConfig().Core.Solve.CandidateRows))
		if err != nil {
			t.Fatalf("%s: strict exact solve: %v", name, err)
		}
		if !got.Stats.Optimal || got.Stats.Rung != core.RungILP {
			t.Errorf("%s: stats %+v, want a proven optimum", name, got.Stats)
		}
		if err := oracle.Feasibility(m, got); err != nil {
			t.Errorf("%s: solution fails audit: %v", name, err)
		}
		greedy, err := core.SolveGreedy(m)
		if err != nil {
			t.Fatal(err)
		}
		if got.Objective > greedy.Objective+1e-6 {
			t.Errorf("%s: objective %g exceeds greedy %g", name, got.Objective, greedy.Objective)
		}
		if name != "des3_210" {
			continue
		}
		wide, err := core.Solve(ctx, m, goldenExact(0))
		if err != nil {
			t.Fatalf("%s: strict exact solve over all rows: %v", name, err)
		}
		if err := oracle.Feasibility(m, wide); err != nil {
			t.Errorf("%s: all-rows solution fails audit: %v", name, err)
		}
		t.Logf("%s: optimum %.1f over 12 candidate rows, %.1f over all %d", name, got.Objective, wide.Objective, m.NR)
		if wide.Objective > got.Objective+1e-6*math.Abs(got.Objective) {
			t.Errorf("%s: widening CandidateRows 12 → 0 raised the proven optimum %g → %g",
				name, got.Objective, wide.Objective)
		}
	}
}

// TestCostMatrixMatchesBuildModel cross-checks the production f_cr matrix
// (incremental net boxes, parallel build) against the oracle's naive
// full-bbox recompute on a real prepared testcase.
func TestCostMatrixMatchesBuildModel(t *testing.T) {
	ctx := context.Background()
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.02
	r, err := flow.NewRunner(ctx, synth.TableII()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.BuildClusters(ctx, r.Base, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultCostParams()
	m, err := core.BuildModel(ctx, r.Base, r.Grid, cl, r.NminR, p)
	if err != nil {
		t.Fatal(err)
	}
	ref := oracle.CostMatrix(r.Base, r.Grid, cl, p)
	if len(ref) != len(m.Cost) {
		t.Fatalf("cost matrix has %d rows, oracle recomputed %d", len(m.Cost), len(ref))
	}
	for c := range ref {
		for r := range ref[c] {
			got, want := m.Cost[c][r], ref[c][r]
			if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Fatalf("f_cr[%d][%d]: BuildModel %g, first-principles %g", c, r, got, want)
			}
		}
	}
}

// TestFeasibilityRejectsCorruption corrupts a valid solution once per
// constraint and checks the audit catches each violation.
func TestFeasibilityRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var m *core.Model
	var sol *core.Assignment
	for {
		m = randomModel(rng, true)
		if m.Clusters.N() >= 2 && m.NR >= 3 && m.NminR < m.NR {
			s, err := oracle.Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			sol = s
			break
		}
	}
	if err := oracle.Feasibility(m, sol); err != nil {
		t.Fatalf("valid solution rejected: %v", err)
	}

	clone := func() *core.Assignment {
		c := *sol
		c.ClusterPair = append([]int(nil), sol.ClusterPair...)
		c.MinorityPairs = append([]int(nil), sol.MinorityPairs...)
		return &c
	}

	cases := []struct {
		name    string
		corrupt func(a *core.Assignment)
	}{
		{"eq3-non-minority-row", func(a *core.Assignment) {
			// Assign cluster 0 to a pair outside the minority set.
			in := map[int]bool{}
			for _, r := range a.MinorityPairs {
				in[r] = true
			}
			for r := 0; r < m.NR; r++ {
				if !in[r] {
					a.ClusterPair[0] = r
					return
				}
			}
		}},
		{"eq3-out-of-range", func(a *core.Assignment) { a.ClusterPair[0] = m.NR }},
		{"eq3-missing-cluster", func(a *core.Assignment) { a.ClusterPair = a.ClusterPair[:len(a.ClusterPair)-1] }},
		{"eq5-wrong-count", func(a *core.Assignment) {
			for r := 0; r < m.NR; r++ {
				found := false
				for _, p := range a.MinorityPairs {
					if p == r {
						found = true
						break
					}
				}
				if !found {
					a.MinorityPairs = append(a.MinorityPairs, r)
					return
				}
			}
		}},
		{"eq5-duplicate", func(a *core.Assignment) { a.MinorityPairs[len(a.MinorityPairs)-1] = a.MinorityPairs[0] }},
		{"objective-drift", func(a *core.Assignment) { a.Objective += 1000 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := clone()
			tc.corrupt(a)
			if err := oracle.Feasibility(m, a); err == nil {
				t.Error("corrupted assignment passed the audit")
			}
		})
	}

	// Eq. 4 needs a handcrafted instance where one pair provably cannot
	// host every cluster (the random generator's slack can make that legal).
	t.Run("eq4-overload", func(t *testing.T) {
		om := &core.Model{
			Clusters: &core.Clusters{
				Members: make([][]int32, 4),
				Width:   []int64{100, 100, 100, 100},
				CenterX: make([]float64, 4),
				CenterY: []float64{500, 500, 1500, 1500},
			},
			NR:          4,
			NminR:       2,
			Cap:         210,
			Cost:        [][]float64{{1, 2, 3, 4}, {1, 2, 3, 4}, {4, 3, 2, 1}, {4, 3, 2, 1}},
			PairCenterY: []int64{500, 1500, 2500, 3500},
		}
		good, err := oracle.Solve(om)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Feasibility(om, good); err != nil {
			t.Fatalf("valid solution rejected: %v", err)
		}
		bad := &core.Assignment{
			ClusterPair:   []int{0, 0, 0, 0},
			MinorityPairs: []int{0, 1},
			Objective:     om.Cost[0][0] + om.Cost[1][0] + om.Cost[2][0] + om.Cost[3][0],
		}
		if err := oracle.Feasibility(om, bad); err == nil {
			t.Error("overloaded pair passed the Eq. 4 audit")
		}
	})
}

// TestOracleDeterminism: same instance, same answer, byte for byte.
func TestOracleDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomModel(rng, true)
	a, err := oracle.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oracle.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective {
		t.Fatalf("objectives differ: %g vs %g", a.Objective, b.Objective)
	}
	for c := range a.ClusterPair {
		if a.ClusterPair[c] != b.ClusterPair[c] {
			t.Fatalf("cluster %d assigned to %d then %d", c, a.ClusterPair[c], b.ClusterPair[c])
		}
	}
}
