package fence

import (
	"testing"
	"testing/quick"

	"mthplace/internal/geom"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

func stack(t *testing.T, pattern []tech.TrackHeight) *rowgrid.MixedStack {
	t.Helper()
	tc := tech.Default()
	var h int64
	for _, p := range pattern {
		h += tc.PairHeight(p)
	}
	ms, err := rowgrid.Stack(geom.NewRect(0, 0, 10000, h), pattern, tc)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestFromStackMergesAdjacentIslands(t *testing.T) {
	S, T := tech.Short6T, tech.Tall7p5T
	ms := stack(t, []tech.TrackHeight{S, T, T, S, S, T, S})
	r := FromStack(ms)
	if len(r.Rects) != 2 {
		t.Fatalf("islands = %d, want 2", len(r.Rects))
	}
	// First island: pairs 1 and 2 merged.
	if len(r.Pairs[0]) != 2 || r.Pairs[0][0] != 1 || r.Pairs[0][1] != 2 {
		t.Errorf("island 0 pairs = %v", r.Pairs[0])
	}
	if r.Rects[0].Lo.Y != ms.Y[1] || r.Rects[0].Hi.Y != ms.Y[3] {
		t.Errorf("island 0 rect = %v", r.Rects[0])
	}
	// Second island: pair 5 alone.
	if len(r.Pairs[1]) != 1 || r.Pairs[1][0] != 5 {
		t.Errorf("island 1 pairs = %v", r.Pairs[1])
	}
	// Total fenced area = two tall pairs + one tall pair.
	want := int64(10000) * 3 * tech.Default().PairHeight(T)
	if r.Area() != want {
		t.Errorf("area = %d, want %d", r.Area(), want)
	}
}

func TestFromStackNoMinority(t *testing.T) {
	S := tech.Short6T
	r := FromStack(stack(t, []tech.TrackHeight{S, S, S}))
	if len(r.Rects) != 0 || r.Area() != 0 {
		t.Fatalf("unexpected islands: %+v", r)
	}
	if r.Contains(geom.Point{X: 1, Y: 1}) {
		t.Error("empty fence cannot contain points")
	}
}

func TestContainsQueries(t *testing.T) {
	S, T := tech.Short6T, tech.Tall7p5T
	ms := stack(t, []tech.TrackHeight{S, T, S})
	r := FromStack(ms)
	inside := geom.Point{X: 100, Y: ms.Y[1] + 10}
	outside := geom.Point{X: 100, Y: ms.Y[0] + 10}
	if !r.Contains(inside) || r.Contains(outside) {
		t.Error("Contains wrong")
	}
	cell := geom.NewRect(0, ms.Y[1], 500, ms.Y[1]+270)
	if !r.ContainsRect(cell) {
		t.Error("cell inside island not detected")
	}
	straddle := geom.NewRect(0, ms.Y[1]-10, 500, ms.Y[1]+100)
	if r.ContainsRect(straddle) {
		t.Error("straddling cell must not be contained")
	}
}

// Property: island count equals the number of maximal runs of tall pairs,
// and every tall pair is covered by exactly one island.
func TestIslandStructureProperty(t *testing.T) {
	tc := tech.Default()
	f := func(bits []bool) bool {
		if len(bits) == 0 || len(bits) > 48 {
			return true
		}
		hs := make([]tech.TrackHeight, len(bits))
		var total int64
		runs := 0
		prev := false
		for i, b := range bits {
			if b {
				hs[i] = tech.Tall7p5T
				if !prev {
					runs++
				}
			}
			prev = b
			total += tc.PairHeight(hs[i])
		}
		ms, err := rowgrid.Stack(geom.NewRect(0, 0, 5000, total), hs, tc)
		if err != nil {
			return false
		}
		r := FromStack(ms)
		if len(r.Rects) != runs {
			return false
		}
		covered := map[int]int{}
		for _, pairs := range r.Pairs {
			for _, p := range pairs {
				covered[p]++
			}
		}
		for i, b := range bits {
			if b && covered[i] != 1 {
				return false
			}
			if !b && covered[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
