// Package baseline reimplements the prior state-of-the-art row-based mixed
// track-height placement of Lin & Chang (ICCAD 2021, reference [10] of the
// paper): minority rows are chosen by k-means clustering of the minority
// cells' y-coordinates, and every minority cell moves to its cluster's row.
// No code was released for [10]; like the paper, we reimplement it, and like
// the paper we take N_minR for the proposed ILP from this method's result
// ("for fairness, we set N_minR to match the result from the Flow (2)").
//
// The method is capacity-blind by construction — an attractive stripe can
// be assigned more cell width than its row holds, and the overflow is only
// resolved later by the legalizer spilling cells to other (possibly far)
// minority rows. That displacement/wirelength penalty is precisely what the
// paper's capacity-aware ILP removes.
package baseline

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mthplace/internal/cluster"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Result is the baseline row assignment, shaped like core.RowAssignment so
// the flows can use either interchangeably.
type Result struct {
	// NminR is the minority pair count this method chose.
	NminR int
	// Heights per pair (uniform-grid order).
	Heights []tech.TrackHeight
	// Stack is the restacked die.
	Stack *rowgrid.MixedStack
	// CellPair maps minority instance -> assigned pair index.
	CellPair map[int32]int
	// SeedY maps minority instance -> bottom y of the assigned pair.
	SeedY map[int32]int64
	// Runtime of the assignment.
	Runtime time.Duration
}

// Options tune the baseline.
type Options struct {
	// KMeansIters bounds the Lloyd iterations (default 50).
	KMeansIters int
}

// fill is the target row fill used to size N_minR.
const fill = 0.88

// DefaultOptions returns the values used in the experiments.
func DefaultOptions() Options { return Options{KMeansIters: 50} }

// AssignRows runs the [10]-style row assignment on a design in mLEF form
// placed on uniform grid g.
func AssignRows(d *netlist.Design, g rowgrid.PairGrid, opt Options) (*Result, error) {
	start := time.Now()
	if opt.KMeansIters <= 0 {
		opt.KMeansIters = 50
	}
	minority := d.MinorityInstances()
	capacity := 2 * g.Width()
	if capacity <= 0 || g.N == 0 {
		return nil, fmt.Errorf("baseline: empty row grid")
	}
	var totalW int64
	for _, i := range minority {
		totalW += d.Insts[i].TrueMaster().Width
	}
	nMinR := int(math.Ceil(float64(totalW) / (float64(capacity) * fill)))
	if nMinR < 1 && len(minority) > 0 {
		nMinR = 1
	}
	maxMin := rowgrid.MaxMinorityPairs(d.Die, g.N, d.Tech)
	if nMinR > maxMin {
		return nil, fmt.Errorf("baseline: need %d minority pairs but die restack allows %d", nMinR, maxMin)
	}
	if nMinR > g.N {
		return nil, fmt.Errorf("baseline: need %d minority pairs but grid has %d", nMinR, g.N)
	}

	res := &Result{
		NminR:    nMinR,
		Heights:  make([]tech.TrackHeight, g.N),
		CellPair: make(map[int32]int, len(minority)),
		SeedY:    make(map[int32]int64, len(minority)),
	}
	if len(minority) == 0 {
		ms, err := rowgrid.Stack(d.Die, res.Heights, d.Tech)
		if err != nil {
			return nil, err
		}
		res.Stack = ms
		res.Runtime = time.Since(start)
		return res, nil
	}

	// 1-D k-means on minority y-centers.
	ys := make([]float64, len(minority))
	for k, i := range minority {
		in := d.Insts[i]
		ys[k] = float64(in.Pos.Y) + float64(in.Height())/2
	}
	km := cluster.KMeans1D(ys, nMinR, opt.KMeansIters)

	// Map each centroid to a distinct pair, nearest first; ties resolved by
	// processing centroids bottom-up.
	type cent struct {
		y float64
		c int
	}
	cents := make([]cent, len(km.Centroids))
	for c, y := range km.Centroids {
		cents[c] = cent{y, c}
	}
	sort.Slice(cents, func(a, b int) bool {
		if cents[a].y != cents[b].y {
			return cents[a].y < cents[b].y
		}
		return cents[a].c < cents[b].c
	})
	taken := make([]bool, g.N)
	clusterPair := make([]int, len(km.Centroids))
	for _, ce := range cents {
		best, bestD := -1, math.Inf(1)
		for r := 0; r < g.N; r++ {
			if taken[r] {
				continue
			}
			dd := math.Abs(float64(g.PairCenterY(r)) - ce.y)
			if dd < bestD {
				best, bestD = r, dd
			}
		}
		taken[best] = true
		clusterPair[ce.c] = best
	}

	// Cell assignment: every cell goes to its cluster's row. The method is
	// capacity-naive, exactly like [10] — an attractive stripe can be
	// assigned more cell width than its row holds, and the damage surfaces
	// later as long legalization displacement (the effect the paper
	// measures against). Global feasibility is still guaranteed by the
	// fill-based N_minR sizing above.
	cellPair := make([]int, len(minority))
	for k := range minority {
		cellPair[k] = clusterPair[km.Assign[k]]
	}
	pairs := make([]int, 0, nMinR)
	for r := 0; r < g.N; r++ {
		if taken[r] {
			pairs = append(pairs, r)
		}
	}
	for k, i := range minority {
		res.CellPair[i] = cellPair[k]
	}
	for _, r := range pairs {
		res.Heights[r] = tech.Tall7p5T
	}
	ms, err := rowgrid.Stack(d.Die, res.Heights, d.Tech)
	if err != nil {
		return nil, err
	}
	res.Stack = ms
	for i, r := range res.CellPair {
		res.SeedY[i] = ms.Y[r]
	}
	res.Runtime = time.Since(start)
	return res, nil
}
