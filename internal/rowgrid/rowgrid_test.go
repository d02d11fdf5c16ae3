package rowgrid

import (
	"testing"
	"testing/quick"

	"mthplace/internal/geom"
	"mthplace/internal/tech"
)

func TestUniformGrid(t *testing.T) {
	die := geom.NewRect(0, 0, 10000, 4320) // exactly 10 pairs of 432
	g := Uniform(die, 432)
	if g.N != 10 {
		t.Fatalf("N = %d, want 10", g.N)
	}
	if g.RowH() != 216 || g.NumRows() != 20 {
		t.Errorf("RowH/NumRows = %d/%d", g.RowH(), g.NumRows())
	}
	if g.PairY(0) != 0 || g.PairY(9) != 9*432 {
		t.Error("PairY wrong")
	}
	if g.RowY(1) != 216 || g.RowY(19) != 19*216 {
		t.Error("RowY wrong")
	}
	if g.Width() != 10000 {
		t.Error("Width wrong")
	}
	if g.PairCenterY(0) != 216 {
		t.Errorf("PairCenterY(0) = %d", g.PairCenterY(0))
	}
}

func TestUniformGridPartialPair(t *testing.T) {
	die := geom.NewRect(0, 0, 1000, 1000) // 1000/432 = 2 pairs, remainder dropped
	g := Uniform(die, 432)
	if g.N != 2 {
		t.Errorf("N = %d, want 2", g.N)
	}
	if Uniform(die, 0).N != 0 {
		t.Error("zero pair height must give empty grid")
	}
}

func TestStack(t *testing.T) {
	tc := tech.Default()
	die := geom.NewRect(0, 0, 5000, 432*3+540*2)
	hs := []tech.TrackHeight{tech.Short6T, tech.Tall7p5T, tech.Short6T, tech.Tall7p5T, tech.Short6T}
	ms, err := Stack(die, hs, tc)
	if err != nil {
		t.Fatal(err)
	}
	if ms.NumPairs() != 5 {
		t.Fatal("NumPairs wrong")
	}
	wantY := []int64{0, 432, 432 + 540, 432 + 540 + 432, 432 + 540 + 432 + 540, 432*3 + 540*2}
	for i, w := range wantY {
		if ms.Y[i] != w {
			t.Errorf("Y[%d] = %d, want %d", i, ms.Y[i], w)
		}
	}
	lo, hi := ms.RowsOfPair(1)
	if lo != 432 || hi != 432+270 {
		t.Errorf("RowsOfPair(1) = %d,%d", lo, hi)
	}
	if got := ms.PairsOf(tech.Tall7p5T); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("PairsOf = %v", got)
	}
	if ms.Width() != 5000 {
		t.Error("Width wrong")
	}
}

func TestStackOverflow(t *testing.T) {
	tc := tech.Default()
	die := geom.NewRect(0, 0, 5000, 432*2) // fits two short pairs exactly
	_, err := Stack(die, []tech.TrackHeight{tech.Short6T, tech.Tall7p5T}, tc)
	if err == nil {
		t.Fatal("expected overflow error")
	}
	if _, err := Stack(die, []tech.TrackHeight{tech.Short6T, tech.Short6T}, tc); err != nil {
		t.Fatalf("exact fit must stack: %v", err)
	}
}

func TestNearestPairOf(t *testing.T) {
	tc := tech.Default()
	die := geom.NewRect(0, 0, 5000, 432*4+540)
	hs := []tech.TrackHeight{tech.Short6T, tech.Short6T, tech.Tall7p5T, tech.Short6T, tech.Short6T}
	ms, err := Stack(die, hs, tc)
	if err != nil {
		t.Fatal(err)
	}
	if i, ok := ms.NearestPairOf(tech.Tall7p5T, 0); !ok || i != 2 {
		t.Errorf("NearestPairOf(tall, 0) = %d,%v", i, ok)
	}
	if i, ok := ms.NearestPairOf(tech.Short6T, 0); !ok || i != 0 {
		t.Errorf("NearestPairOf(short, 0) = %d,%v", i, ok)
	}
	allShort, _ := Stack(die, []tech.TrackHeight{tech.Short6T}, tc)
	if _, ok := allShort.NearestPairOf(tech.Tall7p5T, 0); ok {
		t.Error("no tall pair should be found")
	}
}

func TestMaxMinorityPairs(t *testing.T) {
	tc := tech.Default()
	// 10 pairs of short = 4320; die leaves room for 3 upgrades of 108 each.
	die := geom.NewRect(0, 0, 1000, 4320+3*108)
	if got := MaxMinorityPairs(die, 10, tc); got != 3 {
		t.Errorf("MaxMinorityPairs = %d, want 3", got)
	}
	if got := MaxMinorityPairs(die, 100, tc); got != 0 {
		t.Errorf("oversubscribed die must allow 0, got %d", got)
	}
	// Budget larger than nPairs upgrades: clamp to nPairs.
	huge := geom.NewRect(0, 0, 1000, 1<<30)
	if got := MaxMinorityPairs(huge, 5, tc); got != 5 {
		t.Errorf("clamp to nPairs failed: %d", got)
	}
}

// Property: stacking any valid height vector keeps pairs contiguous and
// restacked total equals the sum of pair heights.
func TestStackContiguityProperty(t *testing.T) {
	tc := tech.Default()
	f := func(bits []bool) bool {
		if len(bits) == 0 || len(bits) > 64 {
			return true
		}
		hs := make([]tech.TrackHeight, len(bits))
		var total int64
		for i, b := range bits {
			if b {
				hs[i] = tech.Tall7p5T
			}
			total += tc.PairHeight(hs[i])
		}
		die := geom.NewRect(0, 0, 1000, total)
		ms, err := Stack(die, hs, tc)
		if err != nil {
			return false
		}
		for i := 0; i < ms.NumPairs(); i++ {
			if ms.Y[i+1]-ms.Y[i] != ms.PairH[i] {
				return false
			}
		}
		return ms.Y[ms.NumPairs()] == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
