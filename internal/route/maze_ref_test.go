package route

import "container/heap"

// mazeRef is the original map-based A* with container/heap, kept only as a
// reference for the differential tests: maze must return exactly the path
// mazeRef returns, including nil when the pop limit is hit.
func mazeRef(g *grid, s *segment, opt Options) []int32 {
	start := s.y1*g.w + s.x1
	goal := s.y2*g.w + s.x2
	if start == goal {
		return []int32{}
	}
	dist := make(map[int]float64, 1024)
	prev := make(map[int]int32, 1024) // node -> incoming edge
	h := func(n int) float64 {
		x, y := n%g.w, n/g.w
		return float64(iabs(x-s.x2) + iabs(y-s.y2))
	}
	open := &refPQ{{start, h(start), 0}}
	dist[start] = 0
	pops := 0
	for open.Len() > 0 {
		it := heap.Pop(open).(pqItem)
		if it.node == goal {
			return tracePathRef(g, prev, start, goal)
		}
		if it.g > dist[it.node] {
			continue
		}
		pops++
		if pops > opt.MazeLimit {
			return nil
		}
		x, y := it.node%g.w, it.node/g.w
		type nb struct {
			node int
			edge int32
		}
		var nbs []nb
		if x+1 < g.w {
			nbs = append(nbs, nb{it.node + 1, hEdge(g, x, y)})
		}
		if x > 0 {
			nbs = append(nbs, nb{it.node - 1, hEdge(g, x-1, y)})
		}
		if y+1 < g.h {
			nbs = append(nbs, nb{it.node + g.w, vEdge(g, x, y)})
		}
		if y > 0 {
			nbs = append(nbs, nb{it.node - g.w, vEdge(g, x, y-1)})
		}
		for _, n := range nbs {
			u, c := useOf(g, n.edge)
			ng := it.g + edgeCost(u, c, opt.CongestionPenalty)
			if old, ok := dist[n.node]; !ok || ng < old {
				dist[n.node] = ng
				prev[n.node] = n.edge
				heap.Push(open, pqItem{n.node, ng + h(n.node), ng})
			}
		}
	}
	return nil
}

type refPQ []pqItem

func (p refPQ) Len() int           { return len(p) }
func (p refPQ) Less(i, j int) bool { return p[i].f < p[j].f }
func (p refPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *refPQ) Pop() any          { o := *p; it := o[len(o)-1]; *p = o[:len(o)-1]; return it }

func tracePathRef(g *grid, prev map[int]int32, start, goal int) []int32 {
	var path []int32
	node := goal
	for node != start {
		e := prev[node]
		path = append(path, e)
		idx := int(e / 2)
		x, y := idx%g.w, idx/g.w
		if e%2 == 0 {
			if node == y*g.w+x {
				node = y*g.w + x + 1
			} else {
				node = y*g.w + x
			}
		} else {
			if node == y*g.w+x {
				node = (y+1)*g.w + x
			} else {
				node = y*g.w + x
			}
		}
	}
	return path
}

// bestPatternRef is the original pattern router: it materializes all eight
// L/Z candidates and costs each built path.
func bestPatternRef(g *grid, s *segment, opt Options) []int32 {
	cands := [][]int32{
		lPath(g, s.x1, s.y1, s.x2, s.y2, s.x2, s.y1),
		lPath(g, s.x1, s.y1, s.x2, s.y2, s.x1, s.y2),
	}
	for _, f := range []int{1, 2, 3} {
		zx := s.x1 + (s.x2-s.x1)*f/4
		zy := s.y1 + (s.y2-s.y1)*f/4
		cands = append(cands,
			lPath(g, s.x1, s.y1, s.x2, s.y2, zx, s.y2),
			lPath(g, s.x1, s.y1, s.x2, s.y2, s.x2, zy),
		)
	}
	best, bestC := cands[0], pathCostRef(g, cands[0], opt.CongestionPenalty)
	for _, c := range cands[1:] {
		if cc := pathCostRef(g, c, opt.CongestionPenalty); cc < bestC {
			best, bestC = c, cc
		}
	}
	return best
}

func pathCostRef(g *grid, path []int32, penalty float64) float64 {
	var c float64
	for _, e := range path {
		u, cp := useOf(g, e)
		c += edgeCost(u, cp, penalty)
	}
	return c
}
