// Package legalize places cells into legal, overlap-free row/site positions.
// It provides the three legalization styles compared in the paper:
//
//   - Abacus [13]: classic displacement-minimising legalization onto uniform
//     rows (used to finish the unconstrained mLEF placement, Flow (1));
//   - the row-constraint modification of Abacus used by the prior work [10]
//     (Flows (2) and (4)): per-track-height row candidates, minimising
//     displacement from the incoming placement;
//   - the proposed fence-region-aware legalization (Flows (3) and (5)):
//     cells are first pulled to wirelength-optimal positions (median
//     improvement) with minority cells seeded into their assigned fence
//     rows, then packed with per-class Abacus — optimising HPWL rather than
//     displacement, exactly the trade the paper reports.
package legalize

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"mthplace/internal/geom"
)

// Cell is a legalization request: a cell of width W (DBU) that wants to sit
// at (TargetX, TargetY).
type Cell struct {
	ID               int32
	TargetX, TargetY int64
	W                int64
}

// Row is one placeable single row.
type Row struct {
	Y      int64
	X0, X1 int64
}

// abCluster is an Abacus cluster: a maximal group of abutting cells whose
// optimal positions collided.
type abCluster struct {
	// x is the cluster's left edge in sites.
	x int64
	// w is total width in sites.
	w int64
	// q accumulates Σ(e_i·(x_i* − offset_i)) for the quadratic optimum.
	q float64
	// e is total weight.
	e float64
	// first indexes the cluster's leftmost cell in its row's cells; the
	// cluster runs to the next cluster's first (or the end of cells).
	first int
}

type abRow struct {
	y        int64
	x0Sites  int64
	capSites int64
	used     int64
	// cells are indices into the request slice in append order, which is
	// also left-to-right order: a new cell joins at the right end and a
	// merge only ever joins the last two clusters, so every cluster is a
	// contiguous range of cells.
	cells    []int32
	clusters []abCluster
}

// optimalX returns the weight-optimal clamped left edge for a cluster.
func (r *abRow) optimalX(c *abCluster) int64 {
	x := int64(c.q/c.e + 0.5)
	if c.q < 0 {
		x = int64(c.q/c.e - 0.5)
	}
	return geom.ClampInt64(x, r.x0Sites, r.x0Sites+r.capSites-c.w)
}

// trialAppend computes the cost of appending a cell (width wSites, target
// txSites) without mutating the row: the squared x-displacement of the new
// cell plus the squared shift of the tail clusters it would drag along.
func (r *abRow) trialAppend(txSites, wSites int64) (cost float64, ok bool) {
	if r.used+wSites > r.capSites {
		return 0, false
	}
	// Simulate the Abacus collapse without touching row state.
	cur := abCluster{q: float64(txSites), e: 1, w: wSites}
	tail := len(r.clusters)
	curX := r.optimalX(&cur)
	for tail > 0 {
		prev := r.clusters[tail-1]
		if prev.x+prev.w <= curX {
			break
		}
		// Merge prev (left) with cur: cur's cells shift right by prev.w.
		cur = abCluster{
			q: prev.q + cur.q - cur.e*float64(prev.w),
			e: prev.e + cur.e,
			w: prev.w + cur.w,
		}
		tail--
		curX = r.optimalX(&cur)
	}
	newCellX := curX + cur.w - wSites
	d := float64(newCellX - txSites)
	return d*d + r.tailShiftCost(tail, curX), true
}

// tailShiftCost sums squared shift of clusters [from:] when they are packed
// left-to-right starting at mergedX (every cell in a cluster shifts by the
// same amount, so cluster aggregates are exact).
func (r *abRow) tailShiftCost(from int, mergedX int64) float64 {
	var cost float64
	x := mergedX
	for t := from; t < len(r.clusters); t++ {
		cl := &r.clusters[t]
		dx := float64(x - cl.x)
		cost += dx * dx * cl.e
		x += cl.w
	}
	return cost
}

// append commits cell i into the row. Merging takes over the left
// cluster's first cell, so no cell list is copied.
func (r *abRow) append(i int32, txSites, wSites int64) {
	cur := abCluster{q: float64(txSites), e: 1, w: wSites, first: len(r.cells)}
	r.cells = append(r.cells, i)
	for len(r.clusters) > 0 {
		prev := &r.clusters[len(r.clusters)-1]
		if prev.x+prev.w <= r.optimalX(&cur) {
			break
		}
		cur = abCluster{
			q:     prev.q + cur.q - cur.e*float64(prev.w),
			e:     prev.e + cur.e,
			w:     prev.w + cur.w,
			first: prev.first,
		}
		r.clusters = r.clusters[:len(r.clusters)-1]
	}
	cur.x = r.optimalX(&cur)
	r.clusters = append(r.clusters, cur)
	r.used += wSites
}

// Result maps cell ID to its legal lower-left position.
type Result map[int32]geom.Point

// Abacus legalizes cells into rows on the site grid, minimising (squared)
// displacement. All cells must fit; an error reports the first cell with no
// feasible row. Rows may have different Y but are assumed height-compatible
// with every cell passed in (callers split by track-height class).
func Abacus(cells []Cell, rows []Row, site int64) (Result, error) {
	if site <= 0 {
		return nil, fmt.Errorf("legalize: site width must be positive")
	}
	if len(rows) == 0 {
		if len(cells) == 0 {
			return Result{}, nil
		}
		return nil, fmt.Errorf("legalize: no rows for %d cells", len(cells))
	}
	// Rows take their cell and cluster lists from two shared arrays, an
	// even share each, so a call allocates them once instead of growing a
	// list per row; a row that outgrows its share reallocates only itself.
	share := len(cells)/len(rows) + 1
	cellBuf := make([]int32, share*len(rows))
	clusterBuf := make([]abCluster, share*len(rows))
	ar := make([]abRow, len(rows))
	for i, r := range rows {
		x0 := geom.SnapUp(r.X0, site) / site
		x1 := geom.SnapDown(r.X1, site) / site
		lo, hi := i*share, (i+1)*share
		ar[i] = abRow{y: r.Y, x0Sites: x0, capSites: x1 - x0,
			cells: cellBuf[lo:lo:hi], clusters: clusterBuf[lo:lo:hi]}
	}
	// Rows sorted by y for the candidate expansion.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ar[order[a]].y < ar[order[b]].y })

	// Process cells in increasing target x (Abacus invariant).
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	// The request index breaks ties among duplicate IDs (which Result
	// rejects below), so the order is total and needs no stable sort.
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(cells[a].TargetX, cells[b].TargetX); c != 0 {
			return c
		}
		if c := cmp.Compare(cells[a].ID, cells[b].ID); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	for _, ci := range idx {
		c := cells[ci]
		wSites := (c.W + site - 1) / site
		txSites := geom.SnapNearest(c.TargetX, site) / site
		// Expand candidate rows outward from the target y.
		start := sort.Search(len(order), func(k int) bool { return ar[order[k]].y >= c.TargetY })
		bestRow, bestCost := -1, 0.0
		lo, hi := start-1, start
		siteF := float64(site)
		for lo >= 0 || hi < len(order) {
			pick := -1
			if lo >= 0 && (hi >= len(order) || c.TargetY-ar[order[lo]].y <= ar[order[hi]].y-c.TargetY) {
				pick = order[lo]
				lo--
			} else if hi < len(order) {
				pick = order[hi]
				hi++
			}
			r := &ar[pick]
			dy := float64(r.y-c.TargetY) / siteF
			dyCost := dy * dy
			// Rows are visited in non-decreasing |dy|; once the y term alone
			// exceeds the best total cost, no remaining row can win.
			if bestRow >= 0 && dyCost >= bestCost {
				break
			}
			xCost, ok := r.trialAppend(txSites, wSites)
			if !ok {
				continue
			}
			total := xCost + dyCost
			if bestRow < 0 || total < bestCost {
				bestRow, bestCost = pick, total
			}
		}
		if bestRow < 0 {
			return nil, fmt.Errorf("legalize: cell %d (w=%d) fits in no row", c.ID, c.W)
		}
		ar[bestRow].append(int32(ci), txSites, wSites)
	}
	// Emit final positions.
	out := make(Result, len(cells))
	for i := range ar {
		r := &ar[i]
		for k, cl := range r.clusters {
			end := len(r.cells)
			if k+1 < len(r.clusters) {
				end = r.clusters[k+1].first
			}
			x := cl.x
			for _, ci := range r.cells[cl.first:end] {
				c := cells[ci]
				wSites := (c.W + site - 1) / site
				out[c.ID] = geom.Point{X: x * site, Y: r.y}
				x += wSites
			}
		}
	}
	if len(out) != len(cells) {
		return nil, fmt.Errorf("legalize: internal error: placed %d of %d cells", len(out), len(cells))
	}
	return out, nil
}
