package rap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// bruteForce enumerates every assignment of the instance and returns the
// optimum objective, or +Inf when infeasible. Test-only reference — kept
// inside the package so the solver's unit tests need no other packages.
func bruteForce(in *Instance) float64 {
	nC := in.NumClusters()
	best := math.Inf(1)
	load := make([]int64, in.NR)
	usage := make([]int, in.NR)
	used := 0
	var dfs func(c int, obj float64)
	dfs = func(c int, obj float64) {
		if c == nC {
			if obj < best {
				best = obj
			}
			return
		}
		for _, a := range in.Cand[c] {
			r := a.Row
			if load[r]+in.Width[c] > in.Cap {
				continue
			}
			opening := usage[r] == 0
			if opening && used == in.NminR {
				continue
			}
			load[r] += in.Width[c]
			usage[r]++
			if opening {
				used++
			}
			dfs(c+1, obj+a.Cost)
			if opening {
				used--
			}
			usage[r]--
			load[r] -= in.Width[c]
		}
	}
	dfs(0, 0)
	return best
}

// randomInstance builds a dense random instance; integer-valued costs keep
// distinct objectives at least 1 apart, so optimality checks are exact.
func randomInstance(rng *rand.Rand, slack bool) *Instance {
	nC := rng.Intn(7) + 1
	nR := rng.Intn(6) + 2
	in := &Instance{NR: nR, NminR: rng.Intn(nR) + 1}
	var total, maxW int64
	for c := 0; c < nC; c++ {
		w := int64(rng.Intn(100) + 1)
		in.Width = append(in.Width, w)
		total += w
		if w > maxW {
			maxW = w
		}
		arcs := make([]Arc, nR)
		for r := 0; r < nR; r++ {
			arcs[r] = Arc{Row: int32(r), Cost: float64(rng.Intn(1001))}
		}
		in.Cand = append(in.Cand, arcs)
	}
	in.Cap = (total + int64(in.NminR) - 1) / int64(in.NminR)
	if in.Cap < maxW {
		in.Cap = maxW
	}
	if slack {
		in.Cap += maxW
	}
	return in
}

// sparsify keeps a random subset of each cluster's arcs (at least one).
func sparsify(rng *rand.Rand, in *Instance) {
	for c, arcs := range in.Cand {
		kept := arcs[:0]
		for _, a := range arcs {
			if rng.Intn(3) > 0 {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			kept = append(kept, arcs[rng.Intn(cap(arcs))])
		}
		in.Cand[c] = kept
	}
}

func checkFeasible(t *testing.T, in *Instance, res *Result) {
	t.Helper()
	if len(res.Assign) != in.NumClusters() {
		t.Fatalf("assign length %d, want %d", len(res.Assign), in.NumClusters())
	}
	load := make([]int64, in.NR)
	used := 0
	var obj float64
	for c, r := range res.Assign {
		found := false
		for _, a := range in.Cand[c] {
			if a.Row == r {
				obj += a.Cost
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cluster %d assigned row %d outside its candidate list", c, r)
		}
		if load[r] == 0 {
			used++
		}
		load[r] += in.Width[c]
	}
	for r, l := range load {
		if l > in.Cap {
			t.Fatalf("row %d load %d exceeds capacity %d", r, l, in.Cap)
		}
	}
	if used > in.NminR {
		t.Fatalf("%d distinct rows used, budget %d", used, in.NminR)
	}
	if math.Abs(obj-res.Obj) > 1e-6*math.Max(1, math.Abs(obj)) {
		t.Fatalf("reported objective %g, recomputed %g", res.Obj, obj)
	}
}

// TestSolveMatchesBruteForce checks proven optimality on random dense and
// sparse instances against in-test exhaustive enumeration.
func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		in := randomInstance(rng, i%2 == 0)
		if i%3 == 0 {
			sparsify(rng, in)
		}
		want := bruteForce(in)
		res, err := Solve(context.Background(), in, nil, Options{})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if math.IsInf(want, 1) {
			if res.Status != Infeasible {
				t.Fatalf("instance %d: brute force infeasible, solver says %v obj %g", i, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("instance %d: status %v (stop %v), want Optimal", i, res.Status, res.Stop)
		}
		if math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("instance %d: objective %g, brute force %g", i, res.Obj, want)
		}
		if res.Bound > want+1e-6 {
			t.Fatalf("instance %d: bound %g exceeds optimum %g", i, res.Bound, want)
		}
		checkFeasible(t, in, res)
		if res.Gap() > 1e-9 {
			t.Fatalf("instance %d: gap %g at proven optimality", i, res.Gap())
		}
	}
}

// TestSolveAnytime checks that budget-limited solves report valid bounds,
// honest stop reasons, and feasible incumbents.
func TestSolveAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 80; i++ {
		in := randomInstance(rng, true)
		want := bruteForce(in)
		if math.IsInf(want, 1) {
			continue
		}
		res, err := Solve(context.Background(), in, nil, Options{MaxNodes: 1, RootIters: 3, NodeIters: 1})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		switch res.Status {
		case Optimal, Feasible:
			if res.Obj < want-1e-6 {
				t.Fatalf("instance %d: incumbent %g below optimum %g", i, res.Obj, want)
			}
			if !math.IsInf(res.Bound, -1) && res.Bound > want+1e-6 {
				t.Fatalf("instance %d: bound %g exceeds optimum %g", i, res.Bound, want)
			}
			checkFeasible(t, in, res)
		case Limit:
			if res.Stop == StopNone {
				t.Fatalf("instance %d: Limit status with StopNone", i)
			}
		case Infeasible:
			t.Fatalf("instance %d: feasible instance reported infeasible", i)
		}
	}
}

// TestSolveCancellation checks an already-canceled context stops the search
// with StopContext.
func TestSolveCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	in := randomInstance(rng, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, in, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == Optimal {
		// A root-only proof needs no node pops; anything else must stop.
		return
	}
	if res.Stop != StopContext {
		t.Fatalf("stop %v, want StopContext", res.Stop)
	}
}

// TestSolveTimeLimit checks the deadline path reports StopTimeLimit.
func TestSolveTimeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 50; i++ {
		in := randomInstance(rng, true)
		res, err := Solve(context.Background(), in, nil, Options{TimeLimit: -time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == Optimal || res.Status == Infeasible {
			continue // decided at the root before the clock check
		}
		if res.Stop != StopTimeLimit {
			t.Fatalf("instance %d: stop %v, want StopTimeLimit", i, res.Stop)
		}
		return
	}
}

// TestWarmStartRepair checks that a stale warm assignment (rows missing
// from candidate lists) is repaired, never trusted.
func TestWarmStartRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 120; i++ {
		in := randomInstance(rng, i%2 == 0)
		sparsify(rng, in)
		want := bruteForce(in)
		warm := make([]int32, in.NumClusters())
		for c := range warm {
			warm[c] = int32(rng.Intn(in.NR+2) - 1) // often invalid
		}
		res, err := Solve(context.Background(), in, warm, Options{})
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if math.IsInf(want, 1) {
			if res.Status != Infeasible {
				t.Fatalf("instance %d: want infeasible, got %v", i, res.Status)
			}
			continue
		}
		if res.Status != Optimal || math.Abs(res.Obj-want) > 1e-6 {
			t.Fatalf("instance %d: status %v obj %g, want Optimal %g", i, res.Status, res.Obj, want)
		}
		checkFeasible(t, in, res)
	}
}

// TestIncrementalSolver exercises the perturbation API: every warm re-solve
// must match a cold solve's optimum exactly.
func TestIncrementalSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	n := 60
	if testing.Short() {
		n = 15
	}
	for i := 0; i < n; i++ {
		in := randomInstance(rng, true)
		s, err := NewSolver(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(context.Background(), Options{}); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			switch rng.Intn(3) {
			case 0: // cost row changed
				c := rng.Intn(s.Instance().NumClusters())
				arcs := make([]Arc, in.NR)
				for r := 0; r < in.NR; r++ {
					arcs[r] = Arc{Row: int32(r), Cost: float64(rng.Intn(1001))}
				}
				if err := s.SetClusterArcs(c, arcs); err != nil {
					t.Fatal(err)
				}
			case 1: // cluster added
				arcs := make([]Arc, in.NR)
				for r := 0; r < in.NR; r++ {
					arcs[r] = Arc{Row: int32(r), Cost: float64(rng.Intn(1001))}
				}
				if _, err := s.AddCluster(int64(rng.Intn(50)+1), arcs); err != nil {
					t.Fatal(err)
				}
			case 2: // cluster removed
				if n := s.Instance().NumClusters(); n > 1 {
					if err := s.RemoveCluster(rng.Intn(n)); err != nil {
						t.Fatal(err)
					}
				}
			}
			warmRes, err := s.Solve(context.Background(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(s.Instance())
			if math.IsInf(want, 1) {
				if warmRes.Status != Infeasible {
					t.Fatalf("instance %d step %d: want infeasible, got %v", i, step, warmRes.Status)
				}
				continue
			}
			if warmRes.Status != Optimal || math.Abs(warmRes.Obj-want) > 1e-6 {
				t.Fatalf("instance %d step %d: warm solve status %v obj %g, want Optimal %g",
					i, step, warmRes.Status, warmRes.Obj, want)
			}
		}
	}
}

// TestBitset covers the flattened-arc bit vector helpers.
func TestBitset(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		b := newBitset(n)
		if aliveCount(b) != 0 {
			t.Fatalf("n=%d: fresh bitset not empty", n)
		}
		b.setAll(n)
		if aliveCount(b) != n {
			t.Fatalf("n=%d: setAll count %d", n, aliveCount(b))
		}
		for i := 0; i < n; i++ {
			if !b.get(int32(i)) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
		b.clear(int32(n - 1))
		if b.get(int32(n-1)) || aliveCount(b) != n-1 {
			t.Fatalf("n=%d: clear failed", n)
		}
		c := b.clone()
		c.clear(0)
		if n > 1 && !b.get(0) {
			t.Fatalf("n=%d: clone aliases original", n)
		}
	}
}

// TestValidate covers the malformed-instance rejections.
func TestValidate(t *testing.T) {
	good := &Instance{NR: 3, NminR: 2, Cap: 10, Width: []int64{4},
		Cand: [][]Arc{{{Row: 0, Cost: 1}, {Row: 2, Cost: 2}}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		{NR: 0, NminR: 1, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 0}}}},
		{NR: 3, NminR: 0, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 0}}}},
		{NR: 3, NminR: 4, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 0}}}},
		{NR: 3, NminR: 2, Cap: 0, Width: []int64{1}, Cand: [][]Arc{{{Row: 0}}}},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{1}, Cand: nil},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{0}, Cand: [][]Arc{{{Row: 0}}}},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{}}},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 3}}}},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 1}, {Row: 1}}}},
		{NR: 3, NminR: 2, Cap: 10, Width: []int64{1}, Cand: [][]Arc{{{Row: 2}, {Row: 1}}}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Fatalf("malformed instance %d accepted", i)
		}
	}
	if _, err := Solve(context.Background(), bad[0], nil, Options{}); err == nil {
		t.Fatal("Solve accepted a malformed instance")
	}
}
