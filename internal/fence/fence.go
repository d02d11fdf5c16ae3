// Package fence models the fence regions of §III-D: the union of minority
// (7.5T) row islands derived from the row assignment solution. The paper
// hands these regions to the P&R tool (createInstGroup -fence) so its
// incremental placement keeps every minority cell inside them; here they
// drive the fence-aware legalizer and the fence audit.
package fence

import (
	"mthplace/internal/geom"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Regions is the fence: maximal rectangles covering contiguous minority row
// islands, bottom to top.
type Regions struct {
	// Rects are the island rectangles (full row span wide).
	Rects []geom.Rect
	// Pairs lists, per rectangle, the contiguous pair indices it covers.
	Pairs [][]int
}

// FromStack derives the fence regions of the given mixed stack: vertically
// adjacent minority pairs merge into one island rectangle.
func FromStack(ms *rowgrid.MixedStack) *Regions {
	out := &Regions{}
	var curPairs []int
	var curLo, curHi int64
	flush := func() {
		if len(curPairs) == 0 {
			return
		}
		out.Rects = append(out.Rects, geom.NewRect(ms.X0, curLo, ms.X1, curHi))
		out.Pairs = append(out.Pairs, curPairs)
		curPairs = nil
	}
	for i, h := range ms.Heights {
		if h != tech.Tall7p5T {
			flush()
			continue
		}
		if len(curPairs) == 0 {
			curLo = ms.Y[i]
		}
		curHi = ms.Y[i+1]
		curPairs = append(curPairs, i)
	}
	flush()
	return out
}

// Area returns the total fenced area.
func (r *Regions) Area() int64 {
	var a int64
	for _, rc := range r.Rects {
		a += rc.Area()
	}
	return a
}

// Contains reports whether a point lies inside any fence rectangle.
func (r *Regions) Contains(p geom.Point) bool {
	for _, rc := range r.Rects {
		if rc.Contains(p) {
			return true
		}
	}
	return false
}

// ContainsRect reports whether a cell footprint lies entirely inside one
// fence rectangle.
func (r *Regions) ContainsRect(q geom.Rect) bool {
	for _, rc := range r.Rects {
		if rc.ContainsRect(q) {
			return true
		}
	}
	return false
}
