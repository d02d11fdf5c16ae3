// Package placer implements the unconstrained global placement that stands
// in for the commercial P&R tool's initial placement (§III, step iii of the
// paper). The algorithm is a compact quadratic placer in the SimPL family:
//
//  1. wirelength minimisation: iterated weighted-centroid (Jacobi) sweeps of
//     the star net model, which converge to the quadratic (clique/(p−1))
//     wirelength minimum with fixed IO ports as anchors;
//  2. density spreading: recursive area-balanced bisection produces spread
//     targets. Each level cuts its region's longer axis where the cells, in
//     (coordinate, index) order, first reach half their total area. A
//     weighted quickselect finds that area median without sorting, so a
//     level costs expected O(n) and the whole tree O(n log n); only the
//     leaf bins are sorted. The split is bit-identical to a full sort's:
//     the order is total, so the left set is unique, and cell areas are
//     integers in DBU², so the prefix sums and the split fraction are
//     exact whatever order they are summed in;
//  3. anchoring: each outer iteration re-solves the quadratic system with
//     growing pull toward the spread targets, interpolating between pure
//     wirelength quality and an overlap-free distribution.
//
// The result is a realistic wirelength-optimised, roughly density-legal
// placement; exact legality (sites, rows, no overlap) is established
// afterwards by the legalize package, as in a real flow.
package placer

import (
	"math/rand"
	"slices"

	"mthplace/internal/geom"
	"mthplace/internal/netlist"
)

// Options tune the global placer.
type Options struct {
	// OuterIters is the number of spread/anchor iterations (default 12).
	OuterIters int
	// SolveSweeps is the number of Jacobi sweeps per outer iteration
	// (default 24).
	SolveSweeps int
	// Seed randomises the initial jitter.
	Seed int64
}

const (
	// anchorBase is the initial anchor weight relative to net weight sum;
	// it grows 1.8× every outer iteration.
	anchorBase = 0.03
	// binTarget is the approximate cell count per spreading leaf bin.
	binTarget = 6
)

func (o Options) withDefaults() Options {
	if o.OuterIters <= 0 {
		o.OuterIters = 12
	}
	if o.SolveSweeps <= 0 {
		o.SolveSweeps = 24
	}
	return o
}

// Global computes an unconstrained placement for all movable instances,
// writing lower-left positions into the design. The clock net is excluded
// from the wirelength objective (it is routed as a tree by CTS, and pulling
// every flop to one point would wreck the placement, as in real tools).
func Global(d *netlist.Design, opt Options) {
	opt = opt.withDefaults()
	n := len(d.Insts)
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(opt.Seed + 17))

	cx := make([]float64, n) // cell centers
	cy := make([]float64, n)
	movable := make([]bool, n)
	keys := make([]cellKey, 0, n) // the movable cells, reordered by spread
	var totalArea int64
	dieCx := float64(d.Die.Lo.X+d.Die.Hi.X) / 2
	dieCy := float64(d.Die.Lo.Y+d.Die.Hi.Y) / 2
	for i, in := range d.Insts {
		movable[i] = !in.Fixed
		if in.Fixed {
			cx[i] = float64(in.Pos.X) + float64(in.Width())/2
			cy[i] = float64(in.Pos.Y) + float64(in.Height())/2
			continue
		}
		a := in.Width() * in.Height()
		keys = append(keys, cellKey{area: a, id: int32(i)})
		totalArea += a
		// Start near the die center with jitter to break symmetry.
		cx[i] = dieCx + (rng.Float64()-0.5)*float64(d.Die.W())*0.25
		cy[i] = dieCy + (rng.Float64()-0.5)*float64(d.Die.H())*0.25
	}

	nets := buildNets(d)
	ax := append([]float64(nil), cx...) // anchor targets
	ay := append([]float64(nil), cy...)
	ws := newSolveBuf(n)

	lambda := 0.0
	for outer := 0; outer < opt.OuterIters; outer++ {
		solve(d, nets, ws, cx, cy, ax, ay, movable, lambda, opt.SolveSweeps)
		spread(d.Die, keys, totalArea, cx, cy, ax, ay, binTarget)
		if outer == 0 {
			lambda = anchorBase
		} else {
			lambda *= 1.8
		}
	}
	// Final positions follow the spread targets (overlap-light).
	for i := range cx {
		if movable[i] {
			cx[i], cy[i] = ax[i], ay[i]
		}
	}
	writeBack(d, cx, cy, movable)
}

// placeNet is a net prepared for the quadratic model: participating cell
// indices, fixed-terminal centroid contribution and weight.
type placeNet struct {
	cells  []int32
	fx, fy float64 // sum of fixed/port pin coordinates
	nfixed int
	w      float64
}

func buildNets(d *netlist.Design) []placeNet {
	out := make([]placeNet, 0, len(d.Nets))
	for ni, net := range d.Nets {
		if int32(ni) == d.ClockNet || len(net.Pins) < 2 {
			continue
		}
		var pn placeNet
		for _, ref := range net.Pins {
			if ref.IsPort() {
				p := d.Ports[ref.Pin].Pos
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			if d.Insts[ref.Inst].Fixed {
				p := d.PinPos(ref)
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			pn.cells = append(pn.cells, ref.Inst)
		}
		if len(pn.cells) == 0 {
			continue
		}
		deg := len(pn.cells) + pn.nfixed
		pn.w = 1.0 / float64(deg-1)
		out = append(out, pn)
	}
	return out
}

// solveBuf holds the per-cell accumulators of one Jacobi sweep, allocated
// once per Global call and reused by every sweep.
type solveBuf struct{ sumW, numX, numY []float64 }

func newSolveBuf(n int) solveBuf {
	return solveBuf{make([]float64, n), make([]float64, n), make([]float64, n)}
}

// solve runs Jacobi sweeps of the star-model normal equations with anchor
// pull lambda toward (ax, ay).
func solve(d *netlist.Design, nets []placeNet, ws solveBuf, cx, cy, ax, ay []float64, movable []bool, lambda float64, sweeps int) {
	n := len(cx)
	sumW, numX, numY := ws.sumW, ws.numX, ws.numY
	for s := 0; s < sweeps; s++ {
		for i := 0; i < n; i++ {
			sumW[i], numX[i], numY[i] = 0, 0, 0
		}
		for _, pn := range nets {
			deg := float64(len(pn.cells) + pn.nfixed)
			var sx, sy float64
			for _, c := range pn.cells {
				sx += cx[c]
				sy += cy[c]
			}
			sx += pn.fx
			sy += pn.fy
			// Star center is the net centroid; each member is pulled to the
			// centroid of the *other* members to avoid self-attraction bias.
			for _, c := range pn.cells {
				ox := (sx - cx[c]) / (deg - 1)
				oy := (sy - cy[c]) / (deg - 1)
				numX[c] += pn.w * ox
				numY[c] += pn.w * oy
				sumW[c] += pn.w
			}
		}
		loX, hiX := float64(d.Die.Lo.X), float64(d.Die.Hi.X)
		loY, hiY := float64(d.Die.Lo.Y), float64(d.Die.Hi.Y)
		for i := 0; i < n; i++ {
			if !movable[i] {
				continue
			}
			den := sumW[i] + lambda
			if den <= 0 {
				continue
			}
			nx := (numX[i] + lambda*ax[i]) / den
			ny := (numY[i] + lambda*ay[i]) / den
			cx[i] = clampF(nx, loX, hiX)
			cy[i] = clampF(ny, loY, hiY)
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// spread computes overlap-light targets (ax, ay) by recursive area-balanced
// bisection: cells are recursively split along the longer region axis in
// coordinate order, each half receiving a region share proportional to its
// area demand; leaf bins distribute their cells uniformly. keys holds one
// entry per movable cell, in any order; total is the sum of their areas.
func spread(die geom.Rect, keys []cellKey, total int64, cx, cy, ax, ay []float64, binTarget int) {
	region := rectF{
		x0: float64(die.Lo.X), y0: float64(die.Lo.Y),
		x1: float64(die.Hi.X), y1: float64(die.Hi.Y),
	}
	bisect(keys, total, region, cx, cy, ax, ay, binTarget)
}

type rectF struct{ x0, y0, x1, y1 float64 }

func (r rectF) w() float64 { return r.x1 - r.x0 }
func (r rectF) h() float64 { return r.y1 - r.y0 }

// cellKey is a movable cell as bisection sees it: its coordinate on the
// current cut axis, its area in DBU² and its instance index.
type cellKey struct {
	coord float64
	area  int64
	id    int32
}

// less is the total order every split and leaf uses: coordinate, then
// instance index.
func (a cellKey) less(b cellKey) bool {
	if a.coord != b.coord {
		return a.coord < b.coord
	}
	return a.id < b.id
}

func cmpKey(a, b cellKey) int {
	if a.less(b) {
		return -1
	}
	if b.less(a) {
		return 1
	}
	return 0
}

func bisect(keys []cellKey, total int64, r rectF, cx, cy, ax, ay []float64, binTarget int) {
	if len(keys) == 0 {
		return
	}
	if len(keys) <= binTarget || (r.w() < 1 && r.h() < 1) {
		// Leaf: order by x and distribute uniformly on a row-major mini
		// grid to kill residual overlap.
		for k := range keys {
			keys[k].coord = cx[keys[k].id]
		}
		slices.SortFunc(keys, cmpKey)
		for k, key := range keys {
			f := (float64(k) + 0.5) / float64(len(keys))
			ax[key.id] = r.x0 + f*r.w()
			ay[key.id] = r.y0 + r.h()/2
		}
		return
	}
	vertCut := r.w() >= r.h() // cut the longer axis
	c := cy
	if vertCut {
		c = cx
	}
	for k := range keys {
		keys[k].coord = c[keys[k].id]
	}
	cut, acc := splitKeys(keys, total)
	fracArea := float64(acc) / float64(total)
	left, right := keys[:cut], keys[cut:]
	if vertCut {
		xm := r.x0 + r.w()*fracArea
		bisect(left, acc, rectF{r.x0, r.y0, xm, r.y1}, cx, cy, ax, ay, binTarget)
		bisect(right, total-acc, rectF{xm, r.y0, r.x1, r.y1}, cx, cy, ax, ay, binTarget)
	} else {
		ym := r.y0 + r.h()*fracArea
		bisect(left, acc, rectF{r.x0, r.y0, r.x1, ym}, cx, cy, ax, ay, binTarget)
		bisect(right, total-acc, rectF{r.x0, ym, r.x1, r.y1}, cx, cy, ax, ay, binTarget)
	}
}

// splitKeys finds the area-median split of keys (len ≥ 2, total = the sum
// of their areas) without sorting them. In (coord, id) order the left part
// is the shortest prefix whose area reaches half the total, capped at
// len−1 cells so that both parts are non-empty. splitKeys reorders keys so
// that keys[:cut] is that prefix as a set and returns cut and the prefix's
// area acc.
//
// It is a weighted quickselect: each round partitions the open range
// around a median-of-three pivot and keeps the side that holds the
// crossing, so a level costs expected O(n) instead of a sort's
// O(n log n). The order is total, so the prefix is unique however the
// pivots fall, and areas are integers, so the comparison 2·prefix ≥ total
// is exact.
func splitKeys(keys []cellKey, total int64) (cut int, acc int64) {
	lo, hi := 0, len(keys)
	var before int64 // area of keys[:lo], all of which precede keys[lo:hi]
	for {
		p, below := partition(keys[lo:hi])
		p += lo
		below += before // area of keys[:p]
		if 2*(below+keys[p].area) < total {
			before = below + keys[p].area
			lo = p + 1
			continue
		}
		if p > lo && 2*below >= total {
			hi = p // the crossing lies before the pivot
			continue
		}
		// keys[p] is the cell whose area makes the prefix reach half.
		if p == len(keys)-1 {
			return p, below
		}
		return p + 1, below + keys[p].area
	}
}

// partition reorders s around a median-of-three pivot so that the cells
// before the pivot's final index p precede it and the cells after follow
// it, and returns p and the area of s[:p].
func partition(s []cellKey) (p int, below int64) {
	n := len(s)
	if n >= 3 {
		m := n / 2
		if s[m].less(s[0]) {
			s[0], s[m] = s[m], s[0]
		}
		if s[n-1].less(s[m]) {
			s[m], s[n-1] = s[n-1], s[m]
			if s[m].less(s[0]) {
				s[0], s[m] = s[m], s[0]
			}
		}
		s[m], s[n-1] = s[n-1], s[m]
	}
	pivot := s[n-1]
	for j := 0; j < n-1; j++ {
		if s[j].less(pivot) {
			below += s[j].area
			s[p], s[j] = s[j], s[p]
			p++
		}
	}
	s[p], s[n-1] = s[n-1], s[p]
	return p, below
}

// writeBack converts centers to clamped lower-left positions.
func writeBack(d *netlist.Design, cx, cy []float64, movable []bool) {
	for i, in := range d.Insts {
		if !movable[i] {
			continue
		}
		x := int64(cx[i]) - in.Width()/2
		y := int64(cy[i]) - in.Height()/2
		x = geom.ClampInt64(x, d.Die.Lo.X, d.Die.Hi.X-in.Width())
		y = geom.ClampInt64(y, d.Die.Lo.Y, d.Die.Hi.Y-in.Height())
		in.Pos = geom.Point{X: x, Y: y}
	}
}
