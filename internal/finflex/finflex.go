// Package finflex implements the paper's closing future-work direction:
// placing mixed track-height cells on *pre-determined* row patterns, in the
// style of the TSMC N3E FinFlex™ platform (Fig. 1(b) of the paper — fixed
// alternating rows of the two track-heights), instead of customising each
// row during placement (Fig. 1(c), the paper's main flow).
//
// With a pre-determined pattern there is no row assignment problem: the row
// structure is a function of the pattern alone. Cells are bound to the
// pattern's rows of their height with a capacity-aware nearest-row
// assignment, then legalized with the fence-aware legalizer. Comparing this
// against Flow (5) quantifies the flexibility benefit of customised rows.
package finflex

import (
	"fmt"
	"sort"

	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Pattern is a repeating row-pair height sequence, bottom to top.
type Pattern []tech.TrackHeight

// OneInN returns a pattern with one tall pair every n pairs (n ≥ 2).
func OneInN(n int) Pattern {
	if n < 2 {
		n = 2
	}
	p := make(Pattern, n)
	p[n-1] = tech.Tall7p5T
	return p
}

// String implements fmt.Stringer.
func (p Pattern) String() string {
	out := ""
	for _, h := range p {
		if h == tech.Tall7p5T {
			out += "T"
		} else {
			out += "S"
		}
	}
	return out
}

// Stack tiles the die bottom-up with the repeating pattern: pairs are added
// while they fit the die height. The result is the pre-determined row
// structure (its minority row count is dictated by the pattern, not by the
// design).
func Stack(die geom.Rect, t *tech.Tech, p Pattern) (*rowgrid.MixedStack, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("finflex: empty pattern")
	}
	var hs []tech.TrackHeight
	var y int64
	for i := 0; ; i++ {
		h := p[i%len(p)]
		ph := t.PairHeight(h)
		if y+ph > die.H() {
			break
		}
		hs = append(hs, h)
		y += ph
	}
	if len(hs) == 0 {
		return nil, fmt.Errorf("finflex: die height %d fits no pair", die.H())
	}
	return rowgrid.Stack(die, hs, t)
}

// Assignment binds minority cells to the pattern's tall pairs.
type Assignment struct {
	Stack    *rowgrid.MixedStack
	CellPair map[int32]int
	SeedY    map[int32]int64
}

// Assign maps every minority cell to the nearest tall pair with remaining
// capacity (width-descending order, so big cells get first pick — the same
// capacity-aware greedy the RAP warm start uses). It fails when the pattern
// provides less minority capacity than the design demands; callers then
// pick a denser pattern.
func Assign(d *netlist.Design, ms *rowgrid.MixedStack) (*Assignment, error) {
	tall := ms.PairsOf(tech.Tall7p5T)
	if len(tall) == 0 {
		if len(d.MinorityInstances()) == 0 {
			return &Assignment{Stack: ms, CellPair: map[int32]int{}, SeedY: map[int32]int64{}}, nil
		}
		return nil, fmt.Errorf("finflex: pattern has no tall pairs")
	}
	capacity := 2 * ms.Width()
	load := make(map[int]int64, len(tall))
	minority := d.MinorityInstances()
	order := append([]int32(nil), minority...)
	sort.Slice(order, func(a, b int) bool {
		wa := d.Insts[order[a]].TrueMaster().Width
		wb := d.Insts[order[b]].TrueMaster().Width
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	out := &Assignment{
		Stack:    ms,
		CellPair: make(map[int32]int, len(minority)),
		SeedY:    make(map[int32]int64, len(minority)),
	}
	for _, i := range order {
		in := d.Insts[i]
		w := in.TrueMaster().Width
		cy := in.Pos.Y + in.Height()/2
		best, bestD := -1, int64(0)
		for _, p := range tall {
			if load[p]+w > capacity {
				continue
			}
			dd := geom.AbsInt64(ms.Y[p] + ms.PairH[p]/2 - cy)
			if best == -1 || dd < bestD {
				best, bestD = p, dd
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("finflex: minority demand exceeds pattern capacity (cell %d)", i)
		}
		load[best] += w
		out.CellPair[i] = best
		out.SeedY[i] = ms.Y[best]
	}
	return out, nil
}

// FitPattern picks the sparsest one-in-n pattern (n in [2,8]) that still
// hosts both height classes of the design at the given packing factor:
// larger n leaves more majority rows, so the search prefers the largest n
// whose tall pairs still cover the minority demand, then verifies the
// majority fits. Strict alternation often cannot host a 60%-utilization
// design with a small minority fraction — the flexibility cost of
// pre-determined rows that the paper's customised rows avoid.
func FitPattern(d *netlist.Design, t *tech.Tech, packing float64) (Pattern, *rowgrid.MixedStack, error) {
	if packing <= 0 || packing > 1 {
		packing = 0.92
	}
	var minorityW, majorityW int64
	for _, in := range d.Insts {
		m := in.TrueMaster()
		if m.Height == tech.Tall7p5T {
			minorityW += m.Width
		} else {
			majorityW += m.Width
		}
	}
	for n := 8; n >= 2; n-- {
		ms, err := Stack(d.Die, t, OneInN(n))
		if err != nil {
			continue
		}
		tallCap := int64(len(ms.PairsOf(tech.Tall7p5T))) * 2 * ms.Width()
		shortCap := int64(len(ms.PairsOf(tech.Short6T))) * 2 * ms.Width()
		if float64(minorityW) <= packing*float64(tallCap) &&
			float64(majorityW) <= packing*float64(shortCap) {
			return OneInN(n), ms, nil
		}
	}
	return nil, nil, fmt.Errorf("finflex: no one-in-n pattern hosts the design (minority %d, majority %d)",
		minorityW, majorityW)
}
