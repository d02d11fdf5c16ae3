// Package route implements the global router used for post-route metrics
// (Table V). It stands in for the commercial router: nets are decomposed
// into two-pin segments over a gcell grid with per-edge track capacities,
// segments are routed with congestion-aware L/Z patterns, and overflowed
// nets are ripped up and rerouted with an A* maze search. The router
// reports per-net routed lengths (consumed by STA and the power model) and
// total routed wirelength — congestion detours are what make a bad
// placement's routed wirelength grow faster than its HPWL, exactly the
// effect the paper's Table V measures.
package route

import (
	"fmt"
	"sort"

	"mthplace/internal/geom"
	"mthplace/internal/netlist"
)

// Options tune the router.
type Options struct {
	// CongestionPenalty scales the cost of using a nearly-full edge
	// (default 4).
	CongestionPenalty float64
	// RipupPasses is the number of rip-up-and-reroute rounds for overflowed
	// nets (default 2).
	RipupPasses int
	// MazeLimit bounds the maze search frontier per segment (default
	// 200000 pops) to keep worst-case runtime bounded.
	MazeLimit int
}

func (o Options) withDefaults() Options {
	if o.CongestionPenalty <= 0 {
		o.CongestionPenalty = 4
	}
	if o.RipupPasses <= 0 {
		o.RipupPasses = 2
	}
	if o.MazeLimit <= 0 {
		o.MazeLimit = 200000
	}
	return o
}

// Result summarises a routing run.
type Result struct {
	// WirelengthDBU is the total routed wirelength.
	WirelengthDBU int64
	// NetLength maps net index to its routed length in DBU (clock net
	// included, routed as a spanning tree).
	NetLength []int64
	// Overflow is the number of gcell edges whose demand exceeds capacity
	// after the final pass.
	Overflow int
	// MaxCongestion is the maximum demand/capacity ratio over edges.
	MaxCongestion float64
	// GridW, GridH are the gcell grid dimensions.
	GridW, GridH int
}

type grid struct {
	w, h   int
	size   int64
	x0, y0 int64
	// hUse[y*w+x] is demand on the horizontal edge (x,y)-(x+1,y);
	// vUse[y*w+x] on the vertical edge (x,y)-(x,y+1).
	hUse, vUse []int32
	hCap, vCap int32
}

func (g *grid) clampX(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.w {
		return g.w - 1
	}
	return c
}

func (g *grid) clampY(c int) int {
	if c < 0 {
		return 0
	}
	if c >= g.h {
		return g.h - 1
	}
	return c
}

func (g *grid) cellOf(p geom.Point) (int, int) {
	return g.clampX(int((p.X - g.x0) / g.size)), g.clampY(int((p.Y - g.y0) / g.size))
}

// edgeCost is the congestion-aware cost of pushing one more route through an
// edge with use u and capacity c.
func edgeCost(u, c int32, penalty float64) float64 {
	if c <= 0 {
		return 1e9
	}
	r := float64(u) / float64(c)
	switch {
	case r < 0.6:
		return 1
	case r < 1:
		return 1 + penalty*(r-0.6)/0.4
	default:
		return 1 + penalty + penalty*4*(r-1+1)
	}
}

type segment struct {
	net            int32
	x1, y1, x2, y2 int
	// path is the committed edge list (encoded), empty until routed.
	path []int32
}

// Route runs global routing on the design's current placement.
func Route(d *netlist.Design, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	t := d.Tech
	if t.GCellSize <= 0 {
		return nil, fmt.Errorf("route: bad gcell size")
	}
	if t.HTracksPerGCell <= 0 || t.VTracksPerGCell <= 0 {
		return nil, fmt.Errorf("route: bad track capacity")
	}
	g := &grid{
		w:    int((d.Die.W() + t.GCellSize - 1) / t.GCellSize),
		h:    int((d.Die.H() + t.GCellSize - 1) / t.GCellSize),
		size: t.GCellSize,
		x0:   d.Die.Lo.X,
		y0:   d.Die.Lo.Y,
		hCap: int32(t.HTracksPerGCell),
		vCap: int32(t.VTracksPerGCell),
	}
	if g.w < 1 {
		g.w = 1
	}
	if g.h < 1 {
		g.h = 1
	}
	g.hUse = make([]int32, g.w*g.h)
	g.vUse = make([]int32, g.w*g.h)

	res := &Result{NetLength: make([]int64, len(d.Nets)), GridW: g.w, GridH: g.h}

	// Decompose nets into segments with a nearest-neighbour spanning tree:
	// a net with p >= 2 pins yields p-1 segments.
	nsegs := 0
	for ni := range d.Nets {
		if p := len(d.Nets[ni].Pins); p >= 2 {
			nsegs += p - 1
		}
	}
	segs := make([]segment, 0, nsegs)
	var pts [][2]int
	for ni := range d.Nets {
		pins := d.Nets[ni].Pins
		if len(pins) < 2 {
			continue
		}
		pts = pts[:0]
		for _, ref := range pins {
			x, y := g.cellOf(d.PinPos(ref))
			pts = append(pts, [2]int{x, y})
		}
		for _, e := range spanningTree(pts) {
			segs = append(segs, segment{net: int32(ni), x1: pts[e[0]][0], y1: pts[e[0]][1], x2: pts[e[1]][0], y2: pts[e[1]][1]})
		}
	}
	// Route short segments first (they have the least flexibility).
	sort.SliceStable(segs, func(a, b int) bool {
		la := iabs(segs[a].x1-segs[a].x2) + iabs(segs[a].y1-segs[a].y2)
		lb := iabs(segs[b].x1-segs[b].x2) + iabs(segs[b].y1-segs[b].y2)
		return la < lb
	})

	for i := range segs {
		commit(g, &segs[i], bestPattern(g, &segs[i], opt))
	}

	// Rip-up and reroute segments crossing overflowed edges.
	var search astar
	var over []int
	for pass := 0; pass < opt.RipupPasses; pass++ {
		over = overflowedSegments(g, segs, over[:0])
		if len(over) == 0 {
			break
		}
		for _, i := range over {
			s := &segs[i]
			uncommit(g, s)
			path := search.maze(g, s, opt)
			if path == nil {
				path = bestPattern(g, s, opt)
			}
			commit(g, s, path)
		}
	}

	// Tally.
	for i := range segs {
		l := int64(len(segs[i].path)) * g.size
		res.NetLength[segs[i].net] += l
		res.WirelengthDBU += l
	}
	for i := range g.hUse {
		if g.hUse[i] > g.hCap {
			res.Overflow++
		}
		if r := float64(g.hUse[i]) / float64(g.hCap); r > res.MaxCongestion {
			res.MaxCongestion = r
		}
	}
	for i := range g.vUse {
		if g.vUse[i] > g.vCap {
			res.Overflow++
		}
		if r := float64(g.vUse[i]) / float64(g.vCap); r > res.MaxCongestion {
			res.MaxCongestion = r
		}
	}
	return res, nil
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// spanningTree returns edges of a nearest-neighbour tree over the points
// (Prim's algorithm, Manhattan metric) — a standard RSMT approximation.
func spanningTree(pts [][2]int) [][2]int {
	n := len(pts)
	if n < 2 {
		return nil
	}
	inTree := make([]bool, n)
	dist := make([]int, n)
	from := make([]int, n)
	for i := range dist {
		dist[i] = 1 << 30
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		dist[i] = iabs(pts[i][0]-pts[0][0]) + iabs(pts[i][1]-pts[0][1])
		from[i] = 0
	}
	var edges [][2]int
	for k := 1; k < n; k++ {
		best := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (best == -1 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		edges = append(edges, [2]int{from[best], best})
		for i := 0; i < n; i++ {
			if inTree[i] {
				continue
			}
			dd := iabs(pts[i][0]-pts[best][0]) + iabs(pts[i][1]-pts[best][1])
			if dd < dist[i] {
				dist[i] = dd
				from[i] = best
			}
		}
	}
	return edges
}

// Edge encoding: horizontal edge (x,y)->(x+1,y) is (y*w+x)*2; vertical
// (x,y)->(x,y+1) is (y*w+x)*2+1.
func hEdge(g *grid, x, y int) int32 { return int32((y*g.w + x) * 2) }
func vEdge(g *grid, x, y int) int32 { return int32((y*g.w+x)*2 + 1) }

func addUse(g *grid, e int32, delta int32) {
	if e%2 == 0 {
		g.hUse[e/2] += delta
	} else {
		g.vUse[e/2] += delta
	}
}

func useOf(g *grid, e int32) (int32, int32) {
	if e%2 == 0 {
		return g.hUse[e/2], g.hCap
	}
	return g.vUse[e/2], g.vCap
}

// lPath builds the edge list of an L route via corner (cx, cy):
// (x1,y1) -> (cx,y1) -> (cx,cy) -> (x2,cy) -> (x2,y2).
func lPath(g *grid, x1, y1, x2, y2, cx, cy int) []int32 {
	path := make([]int32, 0, iabs(cx-x1)+iabs(cy-y1)+iabs(x2-cx)+iabs(y2-cy))
	path = appendH(g, path, x1, cx, y1)
	path = appendV(g, path, y1, cy, cx)
	path = appendH(g, path, cx, x2, cy)
	return appendV(g, path, cy, y2, x2)
}

func appendH(g *grid, path []int32, xa, xb, y int) []int32 {
	if xa > xb {
		xa, xb = xb, xa
	}
	for x := xa; x < xb; x++ {
		path = append(path, hEdge(g, x, y))
	}
	return path
}

func appendV(g *grid, path []int32, ya, yb, x int) []int32 {
	if ya > yb {
		ya, yb = yb, ya
	}
	for y := ya; y < yb; y++ {
		path = append(path, vEdge(g, x, y))
	}
	return path
}

// lCost is the congestion cost of lPath(g, x1, y1, x2, y2, cx, cy), summed
// over the same edges in the same order without building the path.
func lCost(g *grid, x1, y1, x2, y2, cx, cy int, penalty float64) float64 {
	c := costH(g, 0, x1, cx, y1, penalty)
	c = costV(g, c, y1, cy, cx, penalty)
	c = costH(g, c, cx, x2, cy, penalty)
	return costV(g, c, cy, y2, x2, penalty)
}

func costH(g *grid, c float64, xa, xb, y int, penalty float64) float64 {
	if xa > xb {
		xa, xb = xb, xa
	}
	for x := xa; x < xb; x++ {
		c += edgeCost(g.hUse[y*g.w+x], g.hCap, penalty)
	}
	return c
}

func costV(g *grid, c float64, ya, yb, x int, penalty float64) float64 {
	if ya > yb {
		ya, yb = yb, ya
	}
	for y := ya; y < yb; y++ {
		c += edgeCost(g.vUse[y*g.w+x], g.vCap, penalty)
	}
	return c
}

// bestPattern picks the cheaper of the two L shapes and a handful of Z
// shapes; ties keep the earlier candidate. Only the winner's path is built.
func bestPattern(g *grid, s *segment, opt Options) []int32 {
	corners := [8][2]int{
		{s.x2, s.y1}, // horizontal first
		{s.x1, s.y2}, // vertical first
	}
	// Z shapes: intermediate x or y at 1/4, 1/2, 3/4.
	for f := 1; f <= 3; f++ {
		corners[2*f] = [2]int{s.x1 + (s.x2-s.x1)*f/4, s.y2}
		corners[2*f+1] = [2]int{s.x2, s.y1 + (s.y2-s.y1)*f/4}
	}
	best, bestC := 0, 0.0
	for k, c := range corners {
		cc := lCost(g, s.x1, s.y1, s.x2, s.y2, c[0], c[1], opt.CongestionPenalty)
		if k == 0 || cc < bestC {
			best, bestC = k, cc
		}
	}
	return lPath(g, s.x1, s.y1, s.x2, s.y2, corners[best][0], corners[best][1])
}

func commit(g *grid, s *segment, path []int32) {
	s.path = path
	for _, e := range path {
		addUse(g, e, 1)
	}
}

func uncommit(g *grid, s *segment) {
	for _, e := range s.path {
		addUse(g, e, -1)
	}
	s.path = nil
}

// overflowedSegments appends to out the indices of segments whose path
// crosses an overflowed edge.
func overflowedSegments(g *grid, segs []segment, out []int) []int {
	for i := range segs {
		for _, e := range segs[i].path {
			u, c := useOf(g, e)
			if u > c {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

type pqItem struct {
	node int
	f, g float64
}

// astar is the maze search's scratch state. It is sized to the grid on the
// first search and reused by every later one: seen[n] == epoch marks
// dist[n] and prev[n] as written by the current search, so nothing is
// cleared between searches. open is a binary min-heap on f whose sift-up
// and sift-down are container/heap's, so equal-f items pop in the same
// order.
type astar struct {
	dist  []float64
	prev  []int32 // node -> incoming edge
	seen  []uint32
	epoch uint32
	open  []pqItem
}

// maze runs A* from the segment source to its sink with congestion-aware
// edge costs; returns nil when the popped-node limit is hit.
func (a *astar) maze(g *grid, s *segment, opt Options) []int32 {
	start := s.y1*g.w + s.x1
	goal := s.y2*g.w + s.x2
	if start == goal {
		return []int32{}
	}
	if n := g.w * g.h; len(a.seen) != n {
		a.dist = make([]float64, n)
		a.prev = make([]int32, n)
		a.seen = make([]uint32, n)
		a.epoch = 0
	}
	a.epoch++
	if a.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(a.seen)
		a.epoch = 1
	}
	h := func(n int) float64 {
		x, y := n%g.w, n/g.w
		return float64(iabs(x-s.x2) + iabs(y-s.y2))
	}
	var it pqItem
	relax := func(n int, e int32) {
		u, c := useOf(g, e)
		ng := it.g + edgeCost(u, c, opt.CongestionPenalty)
		if a.seen[n] != a.epoch || ng < a.dist[n] {
			a.seen[n] = a.epoch
			a.dist[n] = ng
			a.prev[n] = e
			a.push(pqItem{n, ng + h(n), ng})
		}
	}
	a.open = append(a.open[:0], pqItem{start, h(start), 0})
	a.seen[start] = a.epoch
	a.dist[start] = 0
	pops := 0
	for len(a.open) > 0 {
		it = a.pop()
		if it.node == goal {
			return a.tracePath(g, start, goal)
		}
		if it.g > a.dist[it.node] {
			continue
		}
		pops++
		if pops > opt.MazeLimit {
			return nil
		}
		x, y := it.node%g.w, it.node/g.w
		if x+1 < g.w {
			relax(it.node+1, hEdge(g, x, y))
		}
		if x > 0 {
			relax(it.node-1, hEdge(g, x-1, y))
		}
		if y+1 < g.h {
			relax(it.node+g.w, vEdge(g, x, y))
		}
		if y > 0 {
			relax(it.node-g.w, vEdge(g, x, y-1))
		}
	}
	return nil
}

// push is container/heap.Push on the typed heap.
func (a *astar) push(it pqItem) {
	a.open = append(a.open, it)
	h := a.open
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop is container/heap.Pop on the typed heap.
func (a *astar) pop() pqItem {
	h := a.open
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].f < h[j1].f {
			j = j2 // right child
		}
		if !(h[j].f < h[i].f) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	a.open = h[:n]
	return h[n]
}

func (a *astar) tracePath(g *grid, start, goal int) []int32 {
	var path []int32
	node := goal
	for node != start {
		e := a.prev[node]
		path = append(path, e)
		// Move across the edge backwards.
		idx := int(e / 2)
		x, y := idx%g.w, idx/g.w
		if e%2 == 0 { // horizontal (x,y)-(x+1,y)
			if node == y*g.w+x {
				node = y*g.w + x + 1
			} else {
				node = y*g.w + x
			}
		} else { // vertical (x,y)-(x,y+1)
			if node == y*g.w+x {
				node = (y+1)*g.w + x
			} else {
				node = y*g.w + x
			}
		}
	}
	return path
}
