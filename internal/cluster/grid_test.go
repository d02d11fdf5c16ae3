package cluster

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mthplace/internal/par"
)

// nearestScan is the brute-force assignment the grid search replaces: the
// first centroid at the strictly smallest distance wins.
func nearestScan(p Point2, cent []Point2) int {
	best, bestD := 0, math.Inf(1)
	for c, q := range cent {
		d := sq(p.X-q.X) + sq(p.Y-q.Y)
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// kmeansScan is KMeans2D with nearestScan in place of the grid: the same
// seeds, canonical chunks, chunk-order merge and reseeding, run on one
// worker. KMeans2D must reproduce it bit for bit.
func kmeansScan(pts []Point2, k, maxIter int) *Result {
	if len(pts) == 0 {
		return &Result{}
	}
	k = min(max(k, 1), len(pts))
	cent := GridSeeds(pts, k)
	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = -1
	}
	nch := par.NumChunks(len(pts))
	csz, csx, csy := make([][]int, nch), make([][]float64, nch), make([][]float64, nch)
	changedIn := make([]bool, nch)
	sizes, sx, sy := make([]int, k), make([]float64, k), make([]float64, k)
	iters := 0
	for ; iters < maxIter; iters++ {
		par.NewPool(1).ForChunks(len(pts), func(ci, lo, hi int) {
			csz[ci], csx[ci], csy[ci] = make([]int, k), make([]float64, k), make([]float64, k)
			changedIn[ci] = false
			for i := lo; i < hi; i++ {
				p := pts[i]
				best := nearestScan(p, cent)
				if assign[i] != best {
					assign[i] = best
					changedIn[ci] = true
				}
				csz[ci][best]++
				csx[ci][best] += p.X
				csy[ci][best] += p.Y
			}
		})
		changed := false
		clear(sizes)
		clear(sx)
		clear(sy)
		for ci := 0; ci < nch; ci++ {
			changed = changed || changedIn[ci]
			for c := 0; c < k; c++ {
				sizes[c] += csz[ci][c]
				sx[c] += csx[ci][c]
				sy[c] += csy[ci][c]
			}
		}
		if !changed && iters > 0 {
			break
		}
		for c := 0; c < k; c++ {
			if sizes[c] > 0 {
				cent[c] = Point2{sx[c] / float64(sizes[c]), sy[c] / float64(sizes[c])}
			}
		}
		reseedEmpty(pts, cent, assign, sizes)
	}
	return &Result{Assign: assign, Centroids: cent, Sizes: sizes, Iterations: iters}
}

// checkNearest compares the grid search over pts' box with the scan for
// every query point.
func checkNearest(t *testing.T, pts, cent, queries []Point2) {
	t.Helper()
	g := newCentroidGrid(pts, len(cent))
	g.bucket(cent)
	for _, p := range queries {
		if got, want := g.nearest(p, cent), nearestScan(p, cent); got != want {
			t.Fatalf("nearest(%v) = %d at %v, scan %d at %v (grid %dx%d, k=%d)",
				p, got, cent[got], want, cent[want], g.nx, g.ny, len(cent))
		}
	}
}

// checkKMeans compares KMeans2D with kmeansScan field by field, bit for bit.
func checkKMeans(t *testing.T, pts []Point2, k, iters int) {
	t.Helper()
	got := KMeans2D(context.Background(), pts, k, iters)
	want := kmeansScan(pts, k, iters)
	if got.Iterations != want.Iterations || len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("n=%d k=%d: %d iterations, %d centroids; scan %d, %d",
			len(pts), k, got.Iterations, len(got.Centroids), want.Iterations, len(want.Centroids))
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("n=%d k=%d: assign[%d] = %d, scan %d", len(pts), k, i, got.Assign[i], want.Assign[i])
		}
	}
	for c := range want.Centroids {
		if got.Sizes[c] != want.Sizes[c] ||
			math.Float64bits(got.Centroids[c].X) != math.Float64bits(want.Centroids[c].X) ||
			math.Float64bits(got.Centroids[c].Y) != math.Float64bits(want.Centroids[c].Y) {
			t.Fatalf("n=%d k=%d: cluster %d size %d at %v, scan %d at %v", len(pts), k, c,
				got.Sizes[c], got.Centroids[c], want.Sizes[c], want.Centroids[c])
		}
	}
}

// lattice returns the points (x0 + i·step, y0 + j·step) for i < nx, j < ny.
func lattice(x0, y0, step float64, nx, ny int) []Point2 {
	var out []Point2
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			out = append(out, Point2{x0 + float64(i)*step, y0 + float64(j)*step})
		}
	}
	return out
}

// TestNearestMatchesScan checks the grid search against the scan where
// they could part: distance ties, duplicate samples, coincident centroids,
// samples on cell edges, zero-width and zero-height boxes, centroids no
// sample is nearest to, k = 1 and k = n; then whole clusterings on the
// same inputs and on random ones.
func TestNearestMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	grid := lattice(0, 0, 10, 11, 11) // box 100×100; a 10×10 grid puts samples on every cell edge
	dup := append(append([]Point2(nil), grid...), grid...)
	cases := []struct {
		name       string
		pts, cent  []Point2
		extraQuery []Point2
	}{
		{"ties on a lattice", grid, lattice(5, 5, 10, 10, 10), nil},
		{"centroids on samples", grid, grid, nil},
		{"coincident centroids", grid, append(lattice(5, 5, 20, 5, 5), lattice(5, 5, 20, 5, 5)...), nil},
		{"duplicate samples", dup, lattice(0, 0, 25, 5, 5), nil},
		{"zero width", lattice(7, 0, 3, 1, 40), lattice(7, 1, 6, 1, 20), nil},
		{"zero height", lattice(0, -4, 3, 40, 1), lattice(1, -4, 6, 20, 1), nil},
		{"one point", []Point2{{3, 3}}, []Point2{{3, 3}}, nil},
		{"k = 1", grid, []Point2{{50, 50}}, nil},
		{"unused centroids", grid, append(lattice(0, 0, 50, 3, 3), lattice(1, 1, 0.5, 4, 4)...), nil},
		{"centroids just outside the box", grid,
			[]Point2{{math.Nextafter(100, 200), 50}, {math.Nextafter(0, -1), 50}, {50, math.Nextafter(100, 200)}, {30, 30}},
			nil},
		{"large offset", lattice(1e9, -1e9, 0.25, 20, 20), lattice(1e9+0.125, -1e9+0.125, 0.5, 10, 10),
			lattice(1e9, -1e9, 0.125, 40, 40)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkNearest(t, c.pts, c.cent, append(append(append([]Point2(nil), c.pts...), c.cent...), c.extraQuery...))
			for _, k := range []int{1, 2, len(c.cent), len(c.pts) / 3, len(c.pts)} {
				checkKMeans(t, c.pts, k, 30)
			}
		})
	}
	// Random clusterings, including skewed boxes and heavy duplication
	// (which empties clusters and exercises reseedEmpty).
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		w, h := math.Ldexp(1, rng.Intn(30)-10), math.Ldexp(1, rng.Intn(30)-10)
		distinct := 1 + rng.Intn(n)
		base := make([]Point2, distinct)
		for i := range base {
			base[i] = Point2{rng.Float64() * w, rng.Float64() * h}
		}
		pts := make([]Point2, n)
		for i := range pts {
			pts[i] = base[rng.Intn(distinct)]
		}
		k := 1 + rng.Intn(n)
		checkKMeans(t, pts, k, 40)
	}
}

// FuzzNearestCentroid decodes a sample set and a centroid set from bytes
// and requires the grid search to agree with the scan on every sample and
// centroid, then KMeans2D to agree with kmeansScan bit for bit. Coordinates
// are small integers times a power of two plus an offset, so ties,
// duplicates and samples on cell edges are common.
func FuzzNearestCentroid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 20, 0, 0, 0, 0, 10, 0, 0, 10, 10, 10, 5, 5})
	f.Add([]byte{0, 20, 1, 1, 7, 0, 7, 9, 7, 200, 7, 9})
	f.Add([]byte{255, 0, 2, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3})
	f.Add([]byte{8, 40, 3, 0, 0, 0, 255, 255, 0, 255, 255, 0, 128, 128, 64, 64, 192, 192, 64, 192})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		kRaw := int(at(0))
		scale := math.Ldexp(1, int(at(1))%48-24)
		off := []float64{0, 1e6, -3.5e7, 1e9}[at(2)%4]
		flags := at(3)
		body := data[min(len(data), 4):]
		var pts []Point2
		for i := 0; i+1 < len(body) && len(pts) < 300; i += 2 {
			x, y := float64(body[i])*scale+off, float64(body[i+1])*scale+off
			if flags&1 != 0 {
				x = off // zero-width box
			}
			if flags&2 != 0 {
				y = off // zero-height box
			}
			pts = append(pts, Point2{x, y})
		}
		if len(pts) == 0 {
			return
		}
		k := kRaw%len(pts) + 1
		if flags&4 != 0 {
			k = len(pts)
		}
		// Centroids: samples (coincident with data), midpoints of sample
		// pairs, and lattice points that may lie outside the box.
		cent := make([]Point2, k)
		for c := range cent {
			a, b := pts[c%len(pts)], pts[(c*7+3)%len(pts)]
			switch c % 3 {
			case 0:
				cent[c] = a
			case 1:
				cent[c] = Point2{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
			default:
				cent[c] = Point2{float64(int(at(c))-64)*scale + off, float64(int(at(c+1))-64)*scale + off}
			}
		}
		checkNearest(t, pts, cent, append(append([]Point2(nil), pts...), cent...))
		checkKMeans(t, pts, k, 20)
	})
}
