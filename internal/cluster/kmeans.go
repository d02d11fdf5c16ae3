// Package cluster implements the k-means clustering used by the row
// assignment flow. Section III-B of the paper clusters minority cells with
// 2-D k-means before building the ILP: the cluster count is N_C = s · N_minC
// for clustering resolution s in (0,1), and the initial centroids are the
// inner points of a p×p grid over the placement area with p = ceil(sqrt(N_C))
// (the (p² − N_C) outermost grid points are excluded).
//
// Each Lloyd iteration finds a sample's nearest centroid by a ring search
// over a uniform grid of centroid buckets (grid.go) instead of scanning all
// N_C centroids, so an iteration costs about O(N_minC) rather than
// O(N_minC · N_C). The search returns exactly the scan's answer — the same
// distance expression, ties to the lowest centroid index — so clusterings
// are bit-identical to the scan's.
//
// The 1-D variant is used by the reimplemented prior work [10], which
// k-means-clusters minority cell y-coordinates to pick minority rows.
package cluster

import (
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"mthplace/internal/obs"
	"mthplace/internal/par"
)

// Point2 is a 2-D sample.
type Point2 struct {
	X, Y float64
}

// Result is a k-means clustering of 2-D samples.
type Result struct {
	// Assign maps sample index to cluster index in [0, K).
	Assign []int
	// Centroids are the final cluster centers.
	Centroids []Point2
	// Sizes counts samples per cluster.
	Sizes []int
	// Iterations actually performed.
	Iterations int
}

// K returns the cluster count.
func (r *Result) K() int { return len(r.Centroids) }

// Members returns the sample indices of each cluster.
func (r *Result) Members() [][]int {
	out := make([][]int, r.K())
	for i, c := range r.Assign {
		out[c] = append(out[c], i)
	}
	return out
}

// GridSeeds returns the paper's initial centroids: a p×p grid of cell
// centers over the bounding box of the samples, p = ceil(sqrt(k)), with the
// (p²−k) points most distant from the grid center (in grid index space)
// excluded — i.e. pruned "from the outer region of the grid".
func GridSeeds(pts []Point2, k int) []Point2 {
	if k <= 0 || len(pts) == 0 {
		return nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	p := int(math.Ceil(math.Sqrt(float64(k))))
	type cand struct {
		pt   Point2
		ring float64 // distance from grid center in index space
		idx  int
	}
	cands := make([]cand, 0, p*p)
	c := float64(p-1) / 2
	for gy := 0; gy < p; gy++ {
		for gx := 0; gx < p; gx++ {
			x := minX + (maxX-minX)*(float64(gx)+0.5)/float64(p)
			y := minY + (maxY-minY)*(float64(gy)+0.5)/float64(p)
			dx, dy := float64(gx)-c, float64(gy)-c
			cands = append(cands, cand{Point2{x, y}, math.Max(math.Abs(dx), math.Abs(dy))*1e6 + dx*dx + dy*dy, gy*p + gx})
		}
	}
	// Keep the k innermost points; stable order for determinism.
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].ring != cands[j].ring {
			return cands[i].ring < cands[j].ring
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]Point2, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].pt
	}
	return out
}

// KMeans2D clusters the samples into k clusters starting from the paper's
// grid seeds, running standard Lloyd iterations until assignments are stable
// or maxIter is reached. k is clamped to [1, len(pts)]. Assignment uses
// the grid ring search, which returns the brute-force scan's answer. The
// algorithm is fully deterministic: assignment and centroid accumulation
// run on the worker pool carried by ctx (par.FromContext) over par's
// canonical chunks, and the per-chunk partial sums merge in fixed chunk
// order, so the result is bit-identical at any pool bound (including fully
// sequential runs).
//
// Cancellation is checked between Lloyd iterations: when ctx is done the
// loop stops within one iteration and the partial result is returned.
// Callers that must report the cancellation consult ctx.Err themselves
// (core.BuildClusters translates it to errs.ErrCanceled).
func KMeans2D(ctx context.Context, pts []Point2, k, maxIter int) *Result {
	if len(pts) == 0 {
		return &Result{}
	}
	if k < 1 {
		k = 1
	}
	if k > len(pts) {
		k = len(pts)
	}
	cent := GridSeeds(pts, k)
	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = -1
	}
	// Observability: one span per clustering, one progress event per Lloyd
	// iteration (movement = samples that switched cluster). Disabled sinks
	// cost two context lookups for the whole call; the moved counter itself
	// is deterministic bookkeeping with no effect on the clustering.
	span := obs.StartSpan(ctx, "cluster.kmeans2d")
	span.SetArg("samples", len(pts))
	span.SetArg("k", k)
	sink := obs.Progress(ctx)
	start := time.Now()

	// Per-chunk partial reductions of the assignment scan. Chunk boundaries
	// depend only on len(pts), never on the worker count — that fixes the
	// float summation order of the centroid accumulators.
	type partial struct {
		sizes   []int
		sx, sy  []float64
		moved   int
		changed bool
	}
	parts := make([]partial, par.NumChunks(len(pts)))
	for ci := range parts {
		parts[ci] = partial{sizes: make([]int, k), sx: make([]float64, k), sy: make([]float64, k)}
	}
	sizes := make([]int, k)
	sx := make([]float64, k)
	sy := make([]float64, k)
	pool := par.FromContext(ctx)
	grid := newCentroidGrid(pts, k)
	iters := 0
	for ; iters < maxIter; iters++ {
		if ctx.Err() != nil {
			break
		}
		grid.bucket(cent)
		// Assignment + per-chunk accumulation: each chunk owns assign[lo:hi]
		// and its private partial sums.
		pool.ForChunks(len(pts), func(ci, lo, hi int) {
			pt := &parts[ci]
			for c := 0; c < k; c++ {
				pt.sizes[c], pt.sx[c], pt.sy[c] = 0, 0, 0
			}
			pt.changed = false
			pt.moved = 0
			for i := lo; i < hi; i++ {
				p := pts[i]
				best := grid.nearest(p, cent)
				if assign[i] != best {
					assign[i] = best
					pt.changed = true
					pt.moved++
				}
				pt.sizes[best]++
				pt.sx[best] += p.X
				pt.sy[best] += p.Y
			}
		})
		// Deterministic merge in chunk order.
		changed := false
		moved := 0
		for c := 0; c < k; c++ {
			sizes[c], sx[c], sy[c] = 0, 0, 0
		}
		for ci := range parts {
			changed = changed || parts[ci].changed
			moved += parts[ci].moved
			for c := 0; c < k; c++ {
				sizes[c] += parts[ci].sizes[c]
				sx[c] += parts[ci].sx[c]
				sy[c] += parts[ci].sy[c]
			}
		}
		if sink != nil {
			sink(obs.Event{Source: "kmeans", Kind: "iteration", Iter: iters + 1,
				Moved: moved, ElapsedMS: float64(time.Since(start).Microseconds()) / 1000})
		}
		if !changed && iters > 0 {
			break
		}
		// Recompute centroids from the merged sums.
		for c := 0; c < k; c++ {
			if sizes[c] > 0 {
				cent[c] = Point2{sx[c] / float64(sizes[c]), sy[c] / float64(sizes[c])}
			}
		}
		reseedEmpty(pts, cent, assign, sizes)
	}
	span.SetArg("iterations", iters)
	span.End()
	return &Result{Assign: assign, Centroids: cent, Sizes: sizes, Iterations: iters}
}

// reseedEmpty moves each empty cluster's centroid onto the sample farthest
// from its current centroid, taken from the largest cluster, so every
// cluster ends non-empty (required: cluster widths feed the row capacity
// constraint and empty clusters would create degenerate ILP rows).
//
// The empty clusters are served in index order. Each takes one sample from
// the cluster that is then largest (ties to the lowest index), as long as
// that cluster has two or more samples: its farthest remaining member from
// its centroid (ties to the lowest sample index; a member at a NaN
// distance is never taken). The donors follow from sizes alone
// (donorOrder), and one pass over the samples collects their members, so
// a call costs O(n + k), plus a sort of a donor's members when it gives
// more than one sample.
func reseedEmpty(pts []Point2, cent []Point2, assign []int, sizes []int) {
	var empty []int
	for c, s := range sizes {
		if s == 0 {
			empty = append(empty, c)
		}
	}
	if len(empty) == 0 {
		return
	}
	donors := donorOrder(sizes, len(empty))
	if len(donors) == 0 {
		return
	}
	// give[j] counts the samples donor j hands over; its members are
	// collected at members[from[j]:from[j]+sizes[j]].
	give := make([]int, len(sizes))
	for _, j := range donors {
		give[j]++
	}
	from := make([]int, len(sizes))
	total := 0
	for j, g := range give {
		if g > 0 {
			from[j] = total
			total += sizes[j]
		}
	}
	type member struct {
		d float64
		i int
	}
	members := make([]member, total)
	next := append([]int(nil), from...)
	for i, p := range pts {
		if j := assign[i]; give[j] > 0 {
			members[next[j]] = member{sq(p.X-cent[j].X) + sq(p.Y-cent[j].Y), i}
			next[j]++
		}
	}
	// Put each donor's members in the order the donor gives them: farthest
	// first, ties to the lowest index; NaN distances go last and are never
	// given. A donor that gives one sample needs only its first member.
	before := func(a, b member) bool {
		if an, bn := math.IsNaN(a.d), math.IsNaN(b.d); an || bn {
			return !an && bn
		}
		return a.d > b.d || (a.d == b.d && a.i < b.i)
	}
	for j, g := range give {
		ms := members[from[j] : from[j]+sizes[j]]
		switch {
		case g == 1:
			best := 0
			for k := range ms {
				if before(ms[k], ms[best]) {
					best = k
				}
			}
			ms[0], ms[best] = ms[best], ms[0]
		case g > 1:
			slices.SortFunc(ms, func(a, b member) int {
				switch {
				case before(a, b):
					return -1
				case before(b, a):
					return 1
				}
				return 0
			})
		}
	}
	next = from // the next member each donor gives
	for k, j := range donors {
		m := members[next[j]]
		if math.IsNaN(m.d) {
			// Every member left is at a NaN distance, and the donor stays
			// the largest cluster, so no later empty cluster gets a sample.
			return
		}
		next[j]++
		c := empty[k]
		assign[m.i] = c
		sizes[j]--
		sizes[c]++
		cent[c] = pts[m.i]
	}
}

// donorOrder returns, for up to want empty clusters in turn, the cluster
// that is largest when that empty cluster is served: the largest size,
// ties to the lowest index, each serving shrinking the donor by one. It
// stops when the largest cluster has fewer than two samples. That order
// depends only on sizes: while the largest size is L, every cluster that
// started with L or more samples gives one, in index order, and then the
// largest size is L−1. So the clusters are visited level by level, from
// the largest size down to 2, with each level's set in index order merged
// from the level above and the clusters of exactly that size.
func donorOrder(sizes []int, want int) []int {
	top := 0
	for _, s := range sizes {
		top = max(top, s)
	}
	if top < 2 {
		return nil
	}
	// bySize lists the clusters with two or more samples by size,
	// descending, then index.
	start := make([]int, top+2) // start[s] = clusters larger than s
	for _, s := range sizes {
		if s >= 2 {
			start[s-1]++
		}
	}
	for s := top - 1; s >= 0; s-- {
		start[s] += start[s+1]
	}
	bySize := make([]int, start[1])
	next := append([]int(nil), start...)
	for j, s := range sizes {
		if s >= 2 {
			bySize[next[s]] = j
			next[s]++
		}
	}
	out := make([]int, 0, want)
	var level, merged []int // clusters of the current level, in index order
	for L := top; L >= 2 && len(out) < want; L-- {
		if add := bySize[start[L]:start[L-1]]; len(add) > 0 {
			merged = merged[:0]
			a := 0
			for _, j := range level {
				for a < len(add) && add[a] < j {
					merged = append(merged, add[a])
					a++
				}
				merged = append(merged, j)
			}
			merged = append(merged, add[a:]...)
			level, merged = merged, level
		}
		for _, j := range level {
			if len(out) == want {
				break
			}
			out = append(out, j)
		}
	}
	return out
}

func sq(v float64) float64 { return v * v }

// SSE returns the sum of squared distances of samples to their centroids —
// the k-means objective, used by tests to check convergence behaviour.
func SSE(pts []Point2, r *Result) float64 {
	var s float64
	for i, p := range pts {
		c := r.Centroids[r.Assign[i]]
		s += sq(p.X-c.X) + sq(p.Y-c.Y)
	}
	return s
}

// Result1D is a clustering of scalar samples.
type Result1D struct {
	Assign    []int
	Centroids []float64
	Sizes     []int
}

// KMeans1D clusters scalar samples into k clusters with Lloyd iterations,
// seeding centroids at evenly spaced quantiles. Used by the [10] baseline on
// minority-cell y-coordinates.
func KMeans1D(vals []float64, k, maxIter int) *Result1D {
	if len(vals) == 0 {
		return &Result1D{}
	}
	if k < 1 {
		k = 1
	}
	if k > len(vals) {
		k = len(vals)
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cent := make([]float64, k)
	for c := 0; c < k; c++ {
		q := (float64(c) + 0.5) / float64(k)
		cent[c] = sorted[int(q*float64(len(sorted)))]
	}
	assign := make([]int, len(vals))
	sizes := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		for i, v := range vals {
			best, bestD := 0, math.Inf(1)
			for c, q := range cent {
				d := sq(v - q)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
			sizes[best]++
		}
		sum := make([]float64, k)
		for i, v := range vals {
			sum[assign[i]] += v
		}
		for c := 0; c < k; c++ {
			if sizes[c] > 0 {
				cent[c] = sum[c] / float64(sizes[c])
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	return &Result1D{Assign: assign, Centroids: cent, Sizes: sizes}
}
