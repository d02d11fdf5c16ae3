package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	q := Point{-1, 10}
	if got := p.Add(q); got != (Point{2, 14}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{4, -6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.ManhattanDist(q); got != 10 {
		t.Errorf("ManhattanDist = %d, want 10", got)
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(10, 20, 0, 5)
	if r.Lo != (Point{0, 5}) || r.Hi != (Point{10, 20}) {
		t.Fatalf("NewRect got %v", r)
	}
	if r.W() != 10 || r.H() != 15 || r.Area() != 150 || r.HalfPerimeter() != 25 {
		t.Errorf("W/H/Area/HP = %d/%d/%d/%d", r.W(), r.H(), r.Area(), r.HalfPerimeter())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{0, 0}, true},
		{Point{9, 9}, true},
		{Point{10, 5}, false}, // upper edge exclusive
		{Point{5, 10}, false},
		{Point{-1, 5}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestBBoxAndHPWL(t *testing.T) {
	var b BBox
	if b.Valid() || b.HalfPerimeter() != 0 {
		t.Fatal("zero BBox must be invalid with zero HPWL")
	}
	pts := []Point{{1, 1}, {4, 5}, {-2, 3}}
	for _, p := range pts {
		b.Extend(p)
	}
	// x range [-2,4] = 6, y range [1,5] = 4.
	if got := b.HalfPerimeter(); got != 10 {
		t.Errorf("HalfPerimeter = %d, want 10", got)
	}
	if got := HPWL(pts); got != 10 {
		t.Errorf("HPWL = %d, want 10", got)
	}
	if HPWL(nil) != 0 {
		t.Error("HPWL(nil) must be 0")
	}
	if HPWL([]Point{{7, 7}}) != 0 {
		t.Error("single-point HPWL must be 0")
	}
}

func TestSnap(t *testing.T) {
	cases := []struct {
		v, grid, down, up, near int64
	}{
		{17, 5, 15, 20, 15},
		{20, 5, 20, 20, 20},
		{-3, 5, -5, 0, -5},
		{-5, 5, -5, -5, -5},
		{13, 4, 12, 16, 12},
		{14, 4, 12, 16, 16}, // tie rounds up
	}
	for _, c := range cases {
		if got := SnapDown(c.v, c.grid); got != c.down {
			t.Errorf("SnapDown(%d,%d) = %d, want %d", c.v, c.grid, got, c.down)
		}
		if got := SnapUp(c.v, c.grid); got != c.up {
			t.Errorf("SnapUp(%d,%d) = %d, want %d", c.v, c.grid, got, c.up)
		}
		if got := SnapNearest(c.v, c.grid); got != c.near {
			t.Errorf("SnapNearest(%d,%d) = %d, want %d", c.v, c.grid, got, c.near)
		}
	}
}

func TestInterval(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 20}
	if a.Len() != 10 || b.Len() != 15 {
		t.Fatal("Len wrong")
	}
	if got := a.Overlap(b); got != 5 {
		t.Errorf("Overlap = %d", got)
	}
	if got := b.Overlap(a); got != 5 {
		t.Errorf("Overlap not symmetric: %d", got)
	}
	if (Interval{4, 4}).Len() != 0 {
		t.Error("degenerate interval must have zero length")
	}
	if !a.Contains(0) || a.Contains(10) {
		t.Error("Contains must be lo-inclusive hi-exclusive")
	}
}

// Property: HPWL is invariant under point permutation and translation.
func TestHPWLInvarianceProperty(t *testing.T) {
	f := func(xs, ys []int16, dx, dy int16) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		pts := make([]Point, n)
		for i := 0; i < n; i++ {
			pts[i] = Point{int64(xs[i]), int64(ys[i])}
		}
		base := HPWL(pts)
		// Translate.
		moved := make([]Point, n)
		for i, p := range pts {
			moved[i] = p.Add(Point{int64(dx), int64(dy)})
		}
		if HPWL(moved) != base {
			return false
		}
		// Shuffle deterministically.
		rng := rand.New(rand.NewSource(1))
		perm := rng.Perm(n)
		shuf := make([]Point, n)
		for i, j := range perm {
			shuf[i] = pts[j]
		}
		return HPWL(shuf) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxClamp(t *testing.T) {
	if MinInt64(2, 3) != 2 || MinInt64(3, 2) != 2 {
		t.Error("MinInt64")
	}
	if MaxInt64(2, 3) != 3 || MaxInt64(3, 2) != 3 {
		t.Error("MaxInt64")
	}
	if ClampInt64(5, 0, 3) != 3 || ClampInt64(-5, 0, 3) != 0 || ClampInt64(2, 0, 3) != 2 {
		t.Error("ClampInt64")
	}
	if AbsInt64(-7) != 7 || AbsInt64(7) != 7 || AbsInt64(0) != 0 {
		t.Error("AbsInt64")
	}
}
