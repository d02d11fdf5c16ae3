// Package placer implements the unconstrained global placement that stands
// in for the commercial P&R tool's initial placement (§III, step iii of the
// paper). The algorithm is a compact quadratic placer in the SimPL family:
//
//  1. wirelength minimisation: iterated weighted-centroid (Jacobi) sweeps of
//     the star net model, which converge to the quadratic (clique/(p−1))
//     wirelength minimum with fixed IO ports as anchors. A sweep has two
//     phases over two compressed-sparse-row (CSR) indexes built once per
//     call, each phase a par.Pool For over fixed blocks of nets or cells:
//     first every net sums its cells' coordinates (net→cell index), then
//     every movable cell gathers the pull of its nets (cell→net index) and
//     writes its own new position in place. The output is bit-identical to
//     a serial scatter over the nets, at any worker count: a cell adds its
//     nets' terms in ascending net order, which is the order in which the
//     scatter added them to its accumulator, and it reads only its own old
//     position, so every float sum has the same operands in the same order;
//  2. density spreading: recursive area-balanced bisection produces spread
//     targets. Each level cuts its region's longer axis where the cells, in
//     (coordinate, index) order, first reach half their total area. A
//     weighted quickselect finds that area median without sorting, so a
//     level costs expected O(n) and the whole tree O(n log n); only the
//     leaf bins are sorted. The split is bit-identical to a full sort's:
//     the order is total, so the left set is unique, and cell areas are
//     integers in DBU², so the prefix sums and the split fraction are
//     exact whatever order they are summed in. The two halves of a cut own
//     disjoint cells and targets, so the halves of large cuts run in
//     parallel;
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
	"mthplace/internal/par"
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
	// Pool bounds the worker goroutines of the solve and the spread; nil
	// means par.Default. The placement is identical at any bound.
	Pool *par.Pool
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
	if o.Pool == nil {
		o.Pool = par.Default
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

	m := buildStar(d)
	ax := append([]float64(nil), cx...) // anchor targets
	ay := append([]float64(nil), cy...)

	lambda := 0.0
	for outer := 0; outer < opt.OuterIters; outer++ {
		m.solve(opt.Pool, d.Die, cx, cy, ax, ay, lambda, opt.SolveSweeps)
		spread(opt.Pool, d.Die, keys, totalArea, cx, cy, ax, ay, binTarget)
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

// starModel is the star-net quadratic system of one Global call, indexed
// both ways. Each phase of a sweep visits its rows (nets, or movable cells)
// in blocks of visitBlock consecutive rows, and within a block by length,
// then index: runs of equal-length inner loops keep branches predictable.
// Rows are independent within a phase, so the order changes no result.
// Both indexes are stored in visiting order, so each phase reads them
// front to back.
//
// The net at visiting position k has its movable cells at
// netCell[netStart[k]:netStart[k+1]], in pin order. The movable cell at
// visiting position k is cellOrder[k]; its nets are at
// cellNet[cellStart[k]:cellStart[k+1]], as net visiting positions in
// ascending netlist order, once per pin the cell has on the net. Block b
// spans positions netBlock[b] to netBlock[b+1], and likewise for cells.
type starModel struct {
	netStart, netCell, netBlock              []int32
	fx, fy                                   []float64 // per net: sum of fixed/port pin coordinates
	sums                                     []netSum
	cellOrder, cellStart, cellNet, cellBlock []int32
	sumW                                     []float64 // per instance: its nets' weights, summed in netlist order
}

// netSum is what a cell reads of one net in the gather phase: the net's
// coordinate sums from the current sweep, its weight 1/(deg−1) and deg−1.
type netSum struct{ sx, sy, w, dm1 float64 }

// visitBlock is the number of consecutive rows in one block, the unit a
// worker claims. It is a constant, so the blocks do not depend on the
// worker count.
const visitBlock = 256

// buildStar prepares the quadratic model: every net except the clock net,
// nets with fewer than two pins and nets with no movable cell. A first
// pass counts the rows, so that the second fills both indexes in place.
func buildStar(d *netlist.Design) *starModel {
	n := len(d.Insts)
	movable := func(ref netlist.PinRef) bool { return !ref.IsPort() && !d.Insts[ref.Inst].Fixed }
	var kept, netLen []int32 // the model's nets, in netlist order, and their movable pins
	cellLen := make([]int32, n)
	for ni, net := range d.Nets {
		if int32(ni) == d.ClockNet || len(net.Pins) < 2 {
			continue
		}
		var c int32
		for _, ref := range net.Pins {
			if movable(ref) {
				c++
				cellLen[ref.Inst]++
			}
		}
		if c == 0 {
			continue
		}
		kept, netLen = append(kept, int32(ni)), append(netLen, c)
	}

	m := &starModel{sumW: make([]float64, n)}
	_, netPos, netStart, netBlock := layout(netLen, func(int) bool { return true })
	cellOrder, cellPos, cellStart, cellBlock := layout(cellLen, func(i int) bool { return !d.Insts[i].Fixed })
	m.netStart, m.netBlock = netStart, netBlock
	m.cellOrder, m.cellStart, m.cellBlock = cellOrder, cellStart, cellBlock
	m.netCell = make([]int32, netStart[len(netStart)-1])
	m.cellNet = make([]int32, len(m.netCell))
	m.fx, m.fy = make([]float64, len(kept)), make([]float64, len(kept))
	m.sums = make([]netSum, len(kept))
	next := make([]int32, n) // the next free slot of each movable cell's nets
	for i, k := range cellPos {
		if k >= 0 {
			next[i] = cellStart[k]
		}
	}
	for k, ni := range kept {
		p := netPos[k]
		var fx, fy float64
		nfixed := 0
		cells := m.netCell[netStart[p]:netStart[p]] // appends fill the slots the first pass counted
		for _, ref := range d.Nets[ni].Pins {
			if movable(ref) {
				cells = append(cells, ref.Inst)
				continue
			}
			var pt geom.Point
			if ref.IsPort() {
				pt = d.Ports[ref.Pin].Pos
			} else {
				pt = d.PinPos(ref)
			}
			fx += float64(pt.X)
			fy += float64(pt.Y)
			nfixed++
		}
		deg := len(cells) + nfixed
		ns := netSum{w: 1.0 / float64(deg-1), dm1: float64(deg) - 1}
		m.fx[p], m.fy[p], m.sums[p] = fx, fy, ns
		for _, c := range cells {
			m.cellNet[next[c]] = p
			next[c]++
			m.sumW[c] += ns.w
		}
	}
	return m
}

// layout orders rows of the given lengths for visiting: blocks of
// visitBlock consecutive rows, within a block by length, then index, and
// rows for which keep is false left out. It returns the row at each
// position, the position of each row (−1 if left out), the CSR offsets of
// the positions and the block bounds.
func layout(lens []int32, keep func(r int) bool) (order, pos, start, block []int32) {
	rows := len(lens)
	order = make([]int32, 0, rows)
	block = make([]int32, 0, rows/visitBlock+2)
	for lo := 0; lo < rows; lo += visitBlock {
		block = append(block, int32(len(order)))
		b := len(order)
		for r := lo; r < min(lo+visitBlock, rows); r++ {
			if keep(r) {
				order = append(order, int32(r))
			}
		}
		slices.SortStableFunc(order[b:], func(p, q int32) int { return int(lens[p] - lens[q]) })
	}
	block = append(block, int32(len(order)))
	pos = make([]int32, rows)
	for r := range pos {
		pos[r] = -1
	}
	start = make([]int32, len(order)+1)
	for k, r := range order {
		pos[r] = int32(k)
		start[k+1] = start[k] + lens[r]
	}
	return order, pos, start, block
}

// solve runs Jacobi sweeps of the star-model normal equations with anchor
// pull lambda toward (ax, ay). Each sweep first sums every net's
// coordinates, then moves every movable cell; both phases run on pool, one
// block per iteration.
func (m *starModel) solve(pool *par.Pool, die geom.Rect, cx, cy, ax, ay []float64, lambda float64, sweeps int) {
	g := gather{m: m, cx: cx, cy: cy, ax: ax, ay: ay, lambda: lambda,
		loX: float64(die.Lo.X), hiX: float64(die.Hi.X), loY: float64(die.Lo.Y), hiY: float64(die.Hi.Y)}
	sumNets := func(b int) { m.sumNets(int(m.netBlock[b]), int(m.netBlock[b+1]), cx, cy) }
	move := func(b int) { g.move(int(m.cellBlock[b]), int(m.cellBlock[b+1])) }
	for s := 0; s < sweeps; s++ {
		forBlocks(pool, len(m.sums), m.netBlock, sumNets)
		forBlocks(pool, len(m.cellOrder), m.cellBlock, move)
	}
}

// parallelMin is the fewest rows (nets or cells in a solve phase, cells in
// a spreading cut) worth handing to a second worker: on smaller ones,
// waking it costs more than it saves.
const parallelMin = 4096

// forBlocks runs body for each block of a phase with the given rows and
// block bounds, on pool when the phase is large enough and inline
// otherwise.
func forBlocks(pool *par.Pool, rows int, bounds []int32, body func(b int)) {
	if rows < parallelMin {
		for b := 0; b < len(bounds)-1; b++ {
			body(b)
		}
		return
	}
	pool.For(len(bounds)-1, body)
}

// sumNets stores the coordinate sums of the nets at positions [lo, hi):
// cells first, in pin order, then the fixed terminals.
func (m *starModel) sumNets(lo, hi int, cx, cy []float64) {
	start, cells, sums, fx, fy := m.netStart, m.netCell, m.sums, m.fx, m.fy
	for k := lo; k < hi; k++ {
		var sx, sy float64
		for _, c := range cells[start[k]:start[k+1]] {
			sx += cx[c]
			sy += cy[c]
		}
		ns := &sums[k]
		ns.sx = sx + fx[k]
		ns.sy = sy + fy[k]
	}
}

// gather is the second phase of a sweep: each movable cell reads its own
// old position and the sums of its nets, and writes its new position.
type gather struct {
	m                  *starModel
	cx, cy, ax, ay     []float64
	lambda             float64
	loX, hiX, loY, hiY float64
}

// move moves the cells at positions [lo, hi). Each member of a net is
// pulled to the centroid of the net's *other* members, to avoid
// self-attraction bias.
func (g *gather) move(lo, hi int) {
	cells, start, nets, sums, sumW := g.m.cellOrder, g.m.cellStart, g.m.cellNet, g.m.sums, g.m.sumW
	cx, cy, ax, ay, lambda := g.cx, g.cy, g.ax, g.ay, g.lambda
	for k := lo; k < hi; k++ {
		i := cells[k]
		den := sumW[i] + lambda
		if den <= 0 {
			continue
		}
		xi, yi := cx[i], cy[i]
		var numX, numY float64
		for _, j := range nets[start[k]:start[k+1]] {
			ns := &sums[j]
			ox := (ns.sx - xi) / ns.dm1
			oy := (ns.sy - yi) / ns.dm1
			numX += ns.w * ox
			numY += ns.w * oy
		}
		cx[i] = clampF((numX+lambda*ax[i])/den, g.loX, g.hiX)
		cy[i] = clampF((numY+lambda*ay[i])/den, g.loY, g.hiY)
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
func spread(pool *par.Pool, die geom.Rect, keys []cellKey, total int64, cx, cy, ax, ay []float64, binTarget int) {
	region := rectF{
		x0: float64(die.Lo.X), y0: float64(die.Lo.Y),
		x1: float64(die.Hi.X), y1: float64(die.Hi.Y),
	}
	b := bisector{pool: pool, cx: cx, cy: cy, ax: ax, ay: ay, binTarget: binTarget}
	b.bisect(keys, total, region)
}

// bisector is one spread: it reads positions (cx, cy) and writes targets
// (ax, ay). The halves of a cut own disjoint keys and disjoint target
// entries, so they may run at once.
type bisector struct {
	pool           *par.Pool
	cx, cy, ax, ay []float64
	binTarget      int
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

func (b *bisector) bisect(keys []cellKey, total int64, r rectF) {
	if len(keys) == 0 {
		return
	}
	if len(keys) <= b.binTarget || (r.w() < 1 && r.h() < 1) {
		// Leaf: order by x and distribute uniformly on a row-major mini
		// grid to kill residual overlap.
		for k := range keys {
			keys[k].coord = b.cx[keys[k].id]
		}
		slices.SortFunc(keys, cmpKey)
		for k, key := range keys {
			f := (float64(k) + 0.5) / float64(len(keys))
			b.ax[key.id] = r.x0 + f*r.w()
			b.ay[key.id] = r.y0 + r.h()/2
		}
		return
	}
	vertCut := r.w() >= r.h() // cut the longer axis
	c := b.cy
	if vertCut {
		c = b.cx
	}
	for k := range keys {
		keys[k].coord = c[keys[k].id]
	}
	cut, acc := splitKeys(keys, total)
	fracArea := float64(acc) / float64(total)
	left, right := keys[:cut], keys[cut:]
	lr, rr := r, r
	if vertCut {
		xm := r.x0 + r.w()*fracArea
		lr.x1, rr.x0 = xm, xm
	} else {
		ym := r.y0 + r.h()*fracArea
		lr.y1, rr.y0 = ym, ym
	}
	if len(keys) < parallelMin {
		b.bisect(left, acc, lr)
		b.bisect(right, total-acc, rr)
		return
	}
	b.pool.For(2, func(half int) {
		if half == 0 {
			b.bisect(left, acc, lr)
		} else {
			b.bisect(right, total-acc, rr)
		}
	})
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
