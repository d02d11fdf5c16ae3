package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestKMeans2DCancelStopsEarly: the Lloyd loop checks the context once per
// iteration, so a cancel landing mid-clustering stops the run within one
// assignment pass — well before the uncanceled runtime — and the partial
// result reports how far it got. The input is sized so the full run takes
// well over the 100 ms floor with the grid search, not only with a scan.
func TestKMeans2DCancelStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point2, 100000)
	for i := range pts {
		pts[i] = Point2{rng.Float64() * 1e6, rng.Float64() * 1e6}
	}
	const k, iters = 1000, 40

	start := time.Now()
	full := KMeans2D(context.Background(), pts, k, iters)
	fullTime := time.Since(start)
	if fullTime < 100*time.Millisecond {
		t.Skipf("k-means too fast on this host (%v) for a mid-run cancel", fullTime)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(fullTime/10, cancel)
	start = time.Now()
	partial := KMeans2D(ctx, pts, k, iters)
	elapsed := time.Since(start)
	if elapsed >= fullTime {
		t.Errorf("canceled run took %v, not faster than full run %v", elapsed, fullTime)
	}
	if partial.Iterations >= full.Iterations {
		t.Errorf("canceled run did %d iterations, full run %d — cancel never landed",
			partial.Iterations, full.Iterations)
	}
	// The partial result is still internally consistent: every point has an
	// assignment within range.
	for i, a := range partial.Assign {
		if a < 0 || a >= len(partial.Centroids) {
			t.Fatalf("point %d assigned to out-of-range centroid %d", i, a)
		}
	}
}

// TestKMeans2DPreCanceled: a context canceled before the call returns the
// seeded centroids untouched after zero iterations.
func TestKMeans2DPreCanceled(t *testing.T) {
	pts := []Point2{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := KMeans2D(ctx, pts, 2, 10)
	if res.Iterations != 0 {
		t.Fatalf("Iterations = %d, want 0", res.Iterations)
	}
}
