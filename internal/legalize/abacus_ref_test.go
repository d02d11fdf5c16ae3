package legalize

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mthplace/internal/geom"
)

// refCluster is an Abacus cluster of abacusCopyOnMerge: a maximal group
// of abutting cells whose optimal positions collided.
type refCluster struct {
	// x is the cluster's left edge in sites.
	x int64
	// w is total width in sites.
	w int64
	// q accumulates Σ(e_i·(x_i* − offset_i)) for the quadratic optimum.
	q float64
	// e is total weight.
	e float64
	// cells in left-to-right order.
	cells []int // indices into the request slice
}

type refRow struct {
	y        int64
	x0Sites  int64
	capSites int64
	used     int64
	clusters []refCluster
}

// optimalX returns the weight-optimal clamped left edge for a cluster.
func (r *refRow) optimalX(c *refCluster) int64 {
	x := int64(c.q/c.e + 0.5)
	if c.q < 0 {
		x = int64(c.q/c.e - 0.5)
	}
	return geom.ClampInt64(x, r.x0Sites, r.x0Sites+r.capSites-c.w)
}

// trialAppend computes the cost of appending a cell (width wSites, target
// txSites) without mutating the row: the squared x-displacement of the new
// cell plus the squared shift of the tail clusters it would drag along.
func (r *refRow) trialAppend(txSites, wSites int64) (cost float64, ok bool) {
	if r.used+wSites > r.capSites {
		return 0, false
	}
	// Simulate the Abacus collapse without touching row state.
	cur := refCluster{q: float64(txSites), e: 1, w: wSites}
	tail := len(r.clusters)
	curX := r.optimalX(&cur)
	for tail > 0 {
		prev := r.clusters[tail-1]
		if prev.x+prev.w <= curX {
			break
		}
		// Merge prev (left) with cur: cur's cells shift right by prev.w.
		cur = refCluster{
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
func (r *refRow) tailShiftCost(from int, mergedX int64) float64 {
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

// append commits cell i into the row.
func (r *refRow) append(i int, txSites, wSites int64) {
	cur := refCluster{q: float64(txSites), e: 1, w: wSites, cells: []int{i}}
	for len(r.clusters) > 0 {
		prev := &r.clusters[len(r.clusters)-1]
		if prev.x+prev.w <= r.optimalX(&cur) {
			break
		}
		merged := refCluster{
			q:     prev.q + cur.q - cur.e*float64(prev.w),
			e:     prev.e + cur.e,
			w:     prev.w + cur.w,
			cells: append(append([]int(nil), prev.cells...), cur.cells...),
		}
		cur = merged
		r.clusters = r.clusters[:len(r.clusters)-1]
	}
	cur.x = r.optimalX(&cur)
	r.clusters = append(r.clusters, cur)
	r.used += wSites
}

// abacusCopyOnMerge is Abacus as it was before clusters became index
// ranges: every merge copies both clusters' cell lists, and the processing
// order comes from a stable sort. FuzzLegalize requires Abacus to match it
// position for position.
func abacusCopyOnMerge(cells []Cell, rows []Row, site int64) (Result, error) {
	if site <= 0 {
		return nil, fmt.Errorf("legalize: site width must be positive")
	}
	if len(rows) == 0 {
		if len(cells) == 0 {
			return Result{}, nil
		}
		return nil, fmt.Errorf("legalize: no rows for %d cells", len(cells))
	}
	ar := make([]*refRow, len(rows))
	for i, r := range rows {
		x0 := geom.SnapUp(r.X0, site) / site
		x1 := geom.SnapDown(r.X1, site) / site
		ar[i] = &refRow{y: r.Y, x0Sites: x0, capSites: x1 - x0}
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
	sort.SliceStable(idx, func(a, b int) bool {
		if cells[idx[a]].TargetX != cells[idx[b]].TargetX {
			return cells[idx[a]].TargetX < cells[idx[b]].TargetX
		}
		return cells[idx[a]].ID < cells[idx[b]].ID
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
			r := ar[pick]
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
		ar[bestRow].append(ci, txSites, wSites)
	}
	// Emit final positions.
	out := make(Result, len(cells))
	for _, r := range ar {
		for _, cl := range r.clusters {
			x := cl.x
			for _, ci := range cl.cells {
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

// TestAbacusMatchesCopyOnMerge compares Abacus with abacusCopyOnMerge on
// dense random requests, whose rows build merge chains hundreds of cells
// long (FuzzLegalize's requests stay small), with duplicate targets and a
// few infeasible loads.
func TestAbacusMatchesCopyOnMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const site = int64(54)
	for trial := 0; trial < 60; trial++ {
		nRows := 1 + rng.Intn(6)
		rows := make([]Row, nRows)
		capSites := int64(50 + rng.Intn(400))
		for i := range rows {
			rows[i] = Row{Y: int64(i) * 216, X0: int64(rng.Intn(3)) * site, X1: capSites * site}
		}
		fill := 0.5 + rng.Float64()*0.55
		var cells []Cell
		for used := int64(0); float64(used) < fill*float64(capSites)*float64(nRows); {
			w := int64(1+rng.Intn(6)) * site
			if rng.Intn(4) == 0 {
				w -= int64(rng.Intn(int(site)))
			}
			cells = append(cells, Cell{
				ID:      int32(len(cells)),
				TargetX: int64(rng.Intn(int(capSites/4))) * 4 * site, // many equal targets
				TargetY: int64(rng.Intn(nRows*216 + 1)),
				W:       w,
			})
			used += (w + site - 1) / site
		}
		got, err := Abacus(cells, rows, site)
		want, refErr := abacusCopyOnMerge(cells, rows, site)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, refErr)
		}
		for _, c := range cells {
			if got[c.ID] != want[c.ID] {
				t.Fatalf("trial %d: cell %d at %v, reference %v", trial, c.ID, got[c.ID], want[c.ID])
			}
		}
	}
}
