package cluster

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refReseedEmpty is the reseed that the donor-order version replaced, as
// the reference it is checked against: for each empty cluster it rescans
// every size for the largest cluster and every sample for that cluster's
// farthest member.
func refReseedEmpty(pts []Point2, cent []Point2, assign []int, sizes []int) {
	for c := range cent {
		if sizes[c] > 0 {
			continue
		}
		big := 0
		for j := range sizes {
			if sizes[j] > sizes[big] {
				big = j
			}
		}
		if sizes[big] <= 1 {
			continue
		}
		far, farD := -1, -1.0
		for i, p := range pts {
			if assign[i] != big {
				continue
			}
			d := sq(p.X-cent[big].X) + sq(p.Y-cent[big].Y)
			if d > farD {
				far, farD = i, d
			}
		}
		if far >= 0 {
			assign[far] = c
			sizes[big]--
			sizes[c]++
			cent[c] = pts[far]
		}
	}
}

// reseedCase draws n samples into k clusters, of which about emptyFrac are
// left empty. Coordinates come from `levels` values, so distances tie
// often; special adds infinite and NaN coordinates.
func reseedCase(rng *rand.Rand, n, k, levels int, emptyFrac float64, special bool) ([]Point2, []Point2, []int, []int) {
	live := []int{}
	for c := 0; c < k; c++ {
		if rng.Float64() >= emptyFrac {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		live = append(live, rng.Intn(k))
	}
	pts := make([]Point2, n)
	assign := make([]int, n)
	sizes := make([]int, k)
	// Skewed cluster sizes: a few large clusters and many small ones.
	for i := range pts {
		pts[i] = Point2{float64(rng.Intn(levels)), float64(rng.Intn(levels))}
		if special && rng.Intn(20) == 0 {
			pts[i].X = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		c := live[rng.Intn(len(live))]
		if rng.Intn(2) == 0 {
			c = live[rng.Intn(min(3, len(live)))]
		}
		assign[i] = c
		sizes[c]++
	}
	cent := make([]Point2, k)
	for c := range cent {
		cent[c] = Point2{float64(rng.Intn(levels)) + 0.5, float64(rng.Intn(levels))}
	}
	return pts, cent, assign, sizes
}

func sameCentroid(a, b Point2) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return same(a.X, b.X) && same(a.Y, b.Y)
}

// TestReseedEmptyMatchesReference compares the reseed with the rescanning
// reference on inputs with many empty clusters, heavy distance ties,
// single-member clusters and non-finite coordinates.
func TestReseedEmptyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 4000; iter++ {
		n := 1 + rng.Intn(60)
		if iter%40 == 0 {
			n = 500 + rng.Intn(3000)
		}
		k := 1 + rng.Intn(min(n, 40)+n/20)
		levels := []int{1, 2, 5, 1 << 20}[rng.Intn(4)]
		emptyFrac := []float64{0, 0.3, 0.7, 0.95}[rng.Intn(4)]
		pts, cent, assign, sizes := reseedCase(rng, n, k, levels, emptyFrac, iter%5 == 0)
		rcent, rassign, rsizes := slices.Clone(cent), slices.Clone(assign), slices.Clone(sizes)
		reseedEmpty(pts, cent, assign, sizes)
		refReseedEmpty(pts, rcent, rassign, rsizes)
		if !slices.Equal(assign, rassign) || !slices.Equal(sizes, rsizes) {
			t.Fatalf("iter %d (n=%d k=%d levels=%d): assignments or sizes differ from the reference\nsizes %v\nref   %v",
				iter, n, k, levels, sizes, rsizes)
		}
		for c := range cent {
			if !sameCentroid(cent[c], rcent[c]) {
				t.Fatalf("iter %d: centroid %d is %v, reference %v", iter, c, cent[c], rcent[c])
			}
		}
	}
}
