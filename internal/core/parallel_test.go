package core

import (
	"context"
	"math"
	"testing"

	"mthplace/internal/par"
)

// ctxWithJobs returns a context carrying a private pool bounded to jobs
// workers, so the equivalence tests never touch process state.
func ctxWithJobs(jobs int) context.Context {
	return par.WithPool(context.Background(), par.NewPool(jobs))
}

// TestBuildModelParallelEquivalence asserts the tentpole determinism
// guarantee for the RAP cost model: the f_cr matrix is bit-identical at
// jobs=1 and jobs=8, because each cluster row is computed by exactly one
// worker in the sequential member/row/net order.
func TestBuildModelParallelEquivalence(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	nMinR := nMinRFor(d, g)

	m1, err := BuildModel(ctxWithJobs(1), d, g, cl, nMinR, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	m8, err := BuildModel(ctxWithJobs(8), d, g, cl, nMinR, DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}

	if m1.Cap != m8.Cap || m1.NR != m8.NR || m1.NminR != m8.NminR {
		t.Fatalf("model headers differ: %+v vs %+v", m1, m8)
	}
	if len(m1.Cost) != len(m8.Cost) {
		t.Fatalf("cost rows %d vs %d", len(m1.Cost), len(m8.Cost))
	}
	for c := range m1.Cost {
		for r := range m1.Cost[c] {
			if math.Float64bits(m1.Cost[c][r]) != math.Float64bits(m8.Cost[c][r]) {
				t.Fatalf("f_cr[%d][%d] not bit-identical: %v vs %v", c, r, m1.Cost[c][r], m8.Cost[c][r])
			}
		}
	}
	for r := range m1.PairCenterY {
		if m1.PairCenterY[r] != m8.PairCenterY[r] {
			t.Fatalf("pair center %d differs", r)
		}
	}
}

// TestBuildClustersParallelEquivalence covers the composed path the flows
// take (k-means inside BuildClusters) at both worker counts.
func TestBuildClustersParallelEquivalence(t *testing.T) {
	d, _ := placedDesign(t, 0.02)
	a, err := BuildClusters(ctxWithJobs(1), d, 0.25, 25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildClusters(ctxWithJobs(8), d, 0.25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() {
		t.Fatalf("cluster counts %d vs %d", a.N(), b.N())
	}
	for c := 0; c < a.N(); c++ {
		if a.Width[c] != b.Width[c] || len(a.Members[c]) != len(b.Members[c]) {
			t.Fatalf("cluster %d differs", c)
		}
		for mi := range a.Members[c] {
			if a.Members[c][mi] != b.Members[c][mi] {
				t.Fatalf("cluster %d member %d differs", c, mi)
			}
		}
		if math.Float64bits(a.CenterX[c]) != math.Float64bits(b.CenterX[c]) ||
			math.Float64bits(a.CenterY[c]) != math.Float64bits(b.CenterY[c]) {
			t.Fatalf("cluster %d centroid not bit-identical", c)
		}
	}
}
