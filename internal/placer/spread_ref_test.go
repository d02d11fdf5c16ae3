package placer

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mthplace/internal/geom"
	"mthplace/internal/par"
)

// This file keeps the sort-based bisection that spread used before the
// weighted quickselect, as the reference the new split is checked against.
// Every level sorted its whole subset under (coord, id) and walked the
// float64 prefix sums to the first one reaching half the total area.

// refSplit sorts ids by (coord, id) and returns the old split: the shortest
// prefix whose area reaches half the total, capped at len−1, and its area.
func refSplit(ids []int, coord, area []float64) (cut int, acc, total float64) {
	sort.Slice(ids, func(a, b int) bool {
		va, vb := coord[ids[a]], coord[ids[b]]
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
	for _, id := range ids {
		total += area[id]
	}
	half := total / 2
	for cut < len(ids)-1 {
		acc += area[ids[cut]]
		cut++
		if acc >= half {
			break
		}
	}
	return cut, acc, total
}

// refBisect is the old bisect, whole.
func refBisect(ids []int, r rectF, cx, cy, area, ax, ay []float64, binTarget int) {
	if len(ids) == 0 {
		return
	}
	if len(ids) <= binTarget || (r.w() < 1 && r.h() < 1) {
		sort.Slice(ids, func(a, b int) bool {
			if cx[ids[a]] != cx[ids[b]] {
				return cx[ids[a]] < cx[ids[b]]
			}
			return ids[a] < ids[b]
		})
		for k, id := range ids {
			f := (float64(k) + 0.5) / float64(len(ids))
			ax[id] = r.x0 + f*r.w()
			ay[id] = r.y0 + r.h()/2
		}
		return
	}
	vertCut := r.w() >= r.h()
	coord := cy
	if vertCut {
		coord = cx
	}
	cut, acc, total := refSplit(ids, coord, area)
	fracArea := acc / total
	left, right := ids[:cut], ids[cut:]
	if vertCut {
		xm := r.x0 + r.w()*fracArea
		refBisect(left, rectF{r.x0, r.y0, xm, r.y1}, cx, cy, area, ax, ay, binTarget)
		refBisect(right, rectF{xm, r.y0, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	} else {
		ym := r.y0 + r.h()*fracArea
		refBisect(left, rectF{r.x0, r.y0, r.x1, ym}, cx, cy, area, ax, ay, binTarget)
		refBisect(right, rectF{r.x0, ym, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	}
}

// sameBits reports whether two floats are the same value, counting any two
// NaNs (a zero-area subset divides 0 by 0) as equal.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkSplit runs splitKeys and refSplit on the same cells (coord[i],
// area[i]), with keys starting in the given order, and reports the first
// difference in cut, acc, the split fraction or the left set.
func checkSplit(t *testing.T, coord []float64, area []int64, order []int) {
	t.Helper()
	n := len(coord)
	keys := make([]cellKey, n)
	var total int64
	for k, i := range order {
		keys[k] = cellKey{coord: coord[i], area: area[i], id: int32(i)}
		total += area[i]
	}
	ids := make([]int, n)
	fa := make([]float64, n)
	for i := range ids {
		ids[i] = i
		fa[i] = float64(area[i])
	}
	cut, acc := splitKeys(keys, total)
	rcut, racc, rtotal := refSplit(ids, coord, fa)
	if cut != rcut || float64(acc) != racc {
		t.Fatalf("n=%d coord=%v area=%v: cut/acc %d/%d, reference %d/%g", n, coord, area, cut, acc, rcut, racc)
	}
	if f, rf := float64(acc)/float64(total), racc/rtotal; !sameBits(f, rf) {
		t.Fatalf("n=%d coord=%v area=%v: fracArea %v, reference %v", n, coord, area, f, rf)
	}
	left := make(map[int32]bool, cut)
	for _, k := range keys[:cut] {
		left[k.id] = true
	}
	for _, id := range ids[:rcut] {
		if !left[int32(id)] {
			t.Fatalf("n=%d coord=%v area=%v: cell %d left of the reference cut, not of the new one", n, coord, area, id)
		}
	}
	seen := make(map[int32]bool, n)
	for _, k := range keys {
		if seen[k.id] {
			t.Fatalf("cell %d appears twice after splitKeys", k.id)
		}
		seen[k.id] = true
	}
}

// randomSplitCase draws n cells whose coordinates come from `levels`
// distinct values (few levels = heavy ties, so the id tie-break decides)
// and whose areas are 0 with probability zeroFrac.
func randomSplitCase(rng *rand.Rand, n, levels int, zeroFrac float64) ([]float64, []int64, []int) {
	coord := make([]float64, n)
	area := make([]int64, n)
	for i := range coord {
		coord[i] = float64(rng.Intn(levels)) * 0.5
		if rng.Float64() >= zeroFrac {
			area[i] = 1 + rng.Int63n(1<<20)
		}
	}
	return coord, area, rng.Perm(n)
}

func TestSpreadSplitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rng.Intn(60)
		if iter%10 == 0 {
			n = 2
		}
		if iter%50 == 0 {
			n = 500 + rng.Intn(2000)
		}
		levels := []int{1, 2, 3, 8, 1 << 20}[rng.Intn(5)] // 1: one coordinate for the whole subset
		zeroFrac := []float64{0, 0, 0.3, 0.9, 1}[rng.Intn(5)]
		coord, area, order := randomSplitCase(rng, n, levels, zeroFrac)
		checkSplit(t, coord, area, order)
	}
}

// TestSpreadSplitCapsAtLastCell covers a crossing that only the last cell
// in order reaches: the split then keeps that cell alone on the right.
func TestSpreadSplitCapsAtLastCell(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64} {
		coord := make([]float64, n)
		area := make([]int64, n)
		for i := range coord {
			coord[i] = float64(i)
			area[i] = 1
		}
		area[n-1] = int64(4 * n) // more than all the others together
		rng := rand.New(rand.NewSource(int64(n)))
		checkSplit(t, coord, area, rng.Perm(n))
		keys := make([]cellKey, n)
		var total int64
		for i := range keys {
			keys[i] = cellKey{coord: coord[i], area: area[i], id: int32(i)}
			total += area[i]
		}
		if cut, acc := splitKeys(keys, total); cut != n-1 || acc != int64(n-1) {
			t.Fatalf("n=%d: cut %d acc %d, want %d %d", n, cut, acc, n-1, n-1)
		}
	}
}

// TestSpreadMatchesReference compares whole spreads, new against the old
// sort-based bisection, bit for bit on every target. Odd iterations run on
// a 4-worker pool.
func TestSpreadMatchesReference(t *testing.T) {
	pools := []*par.Pool{par.NewPool(1), par.NewPool(4)}
	rng := rand.New(rand.NewSource(11))
	die := geom.NewRect(0, 0, 20000, 9000)
	for iter := 0; iter < 40; iter++ {
		n := 1 + rng.Intn(3000)
		levels := []int{4, 64, 1 << 20}[iter%3]
		cx := make([]float64, n)
		cy := make([]float64, n)
		area := make([]float64, n)
		keys := make([]cellKey, 0, n)
		ids := make([]int, 0, n)
		var total int64
		for i := 0; i < n; i++ {
			cx[i] = float64(rng.Intn(levels)) * float64(die.W()) / float64(levels)
			cy[i] = float64(rng.Intn(levels)) * float64(die.H()) / float64(levels)
			if i%5 == 0 {
				continue // fixed
			}
			a := (1 + rng.Int63n(8)) * 540 * 432
			area[i] = float64(a)
			keys = append(keys, cellKey{area: a, id: int32(i)})
			ids = append(ids, i)
			total += a
		}
		binTarget := 1 + rng.Intn(8)
		ax, ay := make([]float64, n), make([]float64, n)
		rax, ray := make([]float64, n), make([]float64, n)
		spread(pools[iter%2], die, keys, total, cx, cy, ax, ay, binTarget)
		region := rectF{float64(die.Lo.X), float64(die.Lo.Y), float64(die.Hi.X), float64(die.Hi.Y)}
		refBisect(ids, region, cx, cy, area, rax, ray, binTarget)
		for i := range ax {
			if !sameBits(ax[i], rax[i]) || !sameBits(ay[i], ray[i]) {
				t.Fatalf("iter %d n=%d cell %d: target (%v, %v), reference (%v, %v)",
					iter, n, i, ax[i], ay[i], rax[i], ray[i])
			}
		}
	}
}

// FuzzSpreadSplit decodes bytes into a split input: byte 0 picks how many
// distinct coordinates there are (tie density), then each pair of bytes is
// one cell's coordinate and area (0 = zero area), in the order keys start.
func FuzzSpreadSplit(f *testing.F) {
	f.Add([]byte{255, 1, 5, 2, 5})                          // n = 2
	f.Add([]byte{0, 9, 3, 9, 0, 9, 4, 9, 0, 9, 1})          // one coordinate for the whole subset
	f.Add([]byte{3, 1, 0, 2, 0, 3, 0, 4, 7, 5, 0})          // mostly zero-area cells
	f.Add([]byte{255, 4, 1, 1, 1, 3, 1, 2, 1, 9, 200})      // crossing only at the last cell
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})                      // all areas zero
	f.Add([]byte{7, 200, 9, 13, 40, 77, 2, 5, 5, 5, 90, 6}) // mixed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		levels := int(data[0]) + 1
		cells := data[1:]
		n := len(cells) / 2
		if n > 512 {
			n = 512
		}
		coord := make([]float64, n)
		area := make([]int64, n)
		order := make([]int, n)
		for i := 0; i < n; i++ {
			coord[i] = float64(int(cells[2*i])%levels) - 17.25
			area[i] = int64(cells[2*i+1]) * 1000
			order[i] = n - 1 - i
		}
		checkSplit(t, coord, area, order)
	})
}
