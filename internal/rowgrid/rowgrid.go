// Package rowgrid models the cell-row structure of the die. Because of the
// N-well sharing rule (§II of the paper), rows always come in consecutive
// pairs of equal track-height; the row assignment problem operates on these
// pairs. The package provides the uniform pair grid used while the design is
// in mLEF form, and the mixed-height restacking applied after the row
// assignment decides which pairs are minority (7.5T) rows.
package rowgrid

import (
	"fmt"

	"mthplace/internal/geom"
	"mthplace/internal/tech"
)

// PairGrid is a uniform stack of row pairs filling the die.
type PairGrid struct {
	// X0, X1 bound the placeable span of every row.
	X0, X1 int64
	// Y0 is the bottom of pair 0.
	Y0 int64
	// PairH is the height of each pair; single rows are PairH/2 tall.
	PairH int64
	// N is the number of pairs.
	N int
}

// Uniform builds the pair grid of pairs of height pairH that fit in the die.
func Uniform(die geom.Rect, pairH int64) PairGrid {
	n := 0
	if pairH > 0 {
		n = int(die.H() / pairH)
	}
	return PairGrid{X0: die.Lo.X, X1: die.Hi.X, Y0: die.Lo.Y, PairH: pairH, N: n}
}

// PairY returns the bottom y of pair i.
func (g PairGrid) PairY(i int) int64 { return g.Y0 + int64(i)*g.PairH }

// RowH returns the single-row height.
func (g PairGrid) RowH() int64 { return g.PairH / 2 }

// RowY returns the bottom y of single row j (two rows per pair).
func (g PairGrid) RowY(j int) int64 { return g.Y0 + int64(j)*g.RowH() }

// NumRows returns the single-row count (2 per pair).
func (g PairGrid) NumRows() int { return 2 * g.N }

// Width returns the row span width.
func (g PairGrid) Width() int64 { return g.X1 - g.X0 }

// PairCenterY returns the vertical center of pair i.
func (g PairGrid) PairCenterY(i int) int64 { return g.PairY(i) + g.PairH/2 }

// MixedStack is the die row structure after row assignment: each pair has
// its own track-height and the pairs are restacked from the die bottom.
type MixedStack struct {
	X0, X1 int64
	// Heights[i] is the track-height of pair i (bottom to top).
	Heights []tech.TrackHeight
	// Y[i] is the bottom y of pair i; Y has len(Heights)+1 entries, the last
	// being the top of the stack.
	Y []int64
	// PairH[i] is the pair height of pair i.
	PairH []int64
}

// Stack restacks the die rows with the given per-pair track-heights. It
// fails when the stack would exceed the die height — callers size N_minR so
// this cannot happen in a valid flow.
func Stack(die geom.Rect, heights []tech.TrackHeight, t *tech.Tech) (*MixedStack, error) {
	ms := &MixedStack{
		X0:      die.Lo.X,
		X1:      die.Hi.X,
		Heights: append([]tech.TrackHeight(nil), heights...),
		Y:       make([]int64, len(heights)+1),
		PairH:   make([]int64, len(heights)),
	}
	y := die.Lo.Y
	for i, h := range heights {
		ms.Y[i] = y
		ms.PairH[i] = t.PairHeight(h)
		y += ms.PairH[i]
	}
	ms.Y[len(heights)] = y
	if y > die.Hi.Y {
		return nil, fmt.Errorf("rowgrid: restacked height %d exceeds die top %d (%d pairs, %d minority)",
			y, die.Hi.Y, len(heights), countMinority(heights))
	}
	return ms, nil
}

func countMinority(hs []tech.TrackHeight) int {
	n := 0
	for _, h := range hs {
		if h == tech.Tall7p5T {
			n++
		}
	}
	return n
}

// NumPairs returns the pair count.
func (ms *MixedStack) NumPairs() int { return len(ms.Heights) }

// Width returns the row span width.
func (ms *MixedStack) Width() int64 { return ms.X1 - ms.X0 }

// RowsOfPair returns the bottom y coordinates of the two single rows in pair
// i (lower and upper row of the N-well-sharing pair).
func (ms *MixedStack) RowsOfPair(i int) (lo, hi int64) {
	return ms.Y[i], ms.Y[i] + ms.PairH[i]/2
}

// PairsOf returns the indices of pairs with the given track-height, bottom
// to top.
func (ms *MixedStack) PairsOf(h tech.TrackHeight) []int {
	var out []int
	for i, ph := range ms.Heights {
		if ph == h {
			out = append(out, i)
		}
	}
	return out
}

// NearestPairOf returns the index of the pair of track-height h whose
// vertical center is closest to y; ok is false when no pair has that height.
func (ms *MixedStack) NearestPairOf(h tech.TrackHeight, y int64) (int, bool) {
	best, bestDist := -1, int64(0)
	for i, ph := range ms.Heights {
		if ph != h {
			continue
		}
		c := ms.Y[i] + ms.PairH[i]/2
		d := geom.AbsInt64(c - y)
		if best == -1 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, best != -1
}

// MaxMinorityPairs returns the largest number of 7.5T pairs that fit when
// restacking nPairs pairs into the die height. Flows clamp N_minR with this.
func MaxMinorityPairs(die geom.Rect, nPairs int, t *tech.Tech) int {
	short := t.PairHeight(tech.Short6T)
	tall := t.PairHeight(tech.Tall7p5T)
	budget := die.H() - int64(nPairs)*short
	if budget <= 0 {
		return 0
	}
	extra := tall - short
	k := int(budget / extra)
	if k > nPairs {
		k = nPairs
	}
	return k
}
