// Package geom provides the elementary planar geometry used throughout the
// placer: points, rectangles, half-perimeter wirelength (HPWL) bounding
// boxes, and interval arithmetic on database units.
//
// All coordinates are in integer database units (DBU). The technology
// package defines the DBU scale (1 DBU = 1 nm for the synthetic ASAP7-like
// node used here).
package geom

import "fmt"

// Point is a location in database units.
type Point struct {
	X, Y int64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanDist returns the L1 distance between p and q.
func (p Point) ManhattanDist(q Point) int64 {
	return AbsInt64(p.X-q.X) + AbsInt64(p.Y-q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Rect is an axis-aligned rectangle with inclusive lower-left and exclusive
// upper-right corners, matching the usual layout-database convention.
// A Rect with Lo == Hi is empty.
type Rect struct {
	Lo, Hi Point
}

// NewRect builds a rectangle from any two opposite corners.
func NewRect(x1, y1, x2, y2 int64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{Point{x1, y1}, Point{x2, y2}}
}

// W returns the rectangle width.
func (r Rect) W() int64 { return r.Hi.X - r.Lo.X }

// H returns the rectangle height.
func (r Rect) H() int64 { return r.Hi.Y - r.Lo.Y }

// Area returns the rectangle area.
func (r Rect) Area() int64 { return r.W() * r.H() }

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.W() <= 0 || r.H() <= 0 }

// HalfPerimeter returns W+H, the half-perimeter of the rectangle.
func (r Rect) HalfPerimeter() int64 { return r.W() + r.H() }

// Center returns the rectangle center, rounded down.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Contains reports whether p lies inside r (lower-left inclusive,
// upper-right exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X < r.Hi.X && p.Y >= r.Lo.Y && p.Y < r.Hi.Y
}

// ContainsRect reports whether q lies entirely inside r.
func (r Rect) ContainsRect(q Rect) bool {
	return q.Lo.X >= r.Lo.X && q.Lo.Y >= r.Lo.Y && q.Hi.X <= r.Hi.X && q.Hi.Y <= r.Hi.Y
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y)
}

// BBox accumulates a bounding box over a stream of points.
// The zero value is an empty box.
type BBox struct {
	valid bool
	r     Rect
}

// Extend grows the box to include p.
func (b *BBox) Extend(p Point) {
	if !b.valid {
		b.r = Rect{p, p}
		b.valid = true
		return
	}
	if p.X < b.r.Lo.X {
		b.r.Lo.X = p.X
	}
	if p.Y < b.r.Lo.Y {
		b.r.Lo.Y = p.Y
	}
	if p.X > b.r.Hi.X {
		b.r.Hi.X = p.X
	}
	if p.Y > b.r.Hi.Y {
		b.r.Hi.Y = p.Y
	}
}

// Valid reports whether at least one point has been added.
func (b *BBox) Valid() bool { return b.valid }

// Rect returns the accumulated bounding box (degenerate — zero width/height
// allowed — when fewer than two distinct points were added).
func (b *BBox) Rect() Rect { return b.r }

// HalfPerimeter returns the HPWL of the accumulated box, 0 if no points.
func (b *BBox) HalfPerimeter() int64 {
	if !b.valid {
		return 0
	}
	return b.r.HalfPerimeter()
}

// HPWL computes the half-perimeter wirelength of a point set. It returns 0
// for empty or single-point sets.
func HPWL(pts []Point) int64 {
	var b BBox
	for _, p := range pts {
		b.Extend(p)
	}
	return b.HalfPerimeter()
}

// AbsInt64 returns |v|.
func AbsInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// MinInt64 returns the smaller of a and b.
func MinInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MaxInt64 returns the larger of a and b.
func MaxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ClampInt64 limits v to [lo, hi].
func ClampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// SnapDown rounds v down to a multiple of grid (grid > 0).
func SnapDown(v, grid int64) int64 {
	if grid <= 0 {
		return v
	}
	if v >= 0 {
		return v - v%grid
	}
	m := v % grid
	if m == 0 {
		return v
	}
	return v - m - grid
}

// SnapUp rounds v up to a multiple of grid (grid > 0).
func SnapUp(v, grid int64) int64 {
	d := SnapDown(v, grid)
	if d == v {
		return v
	}
	return d + grid
}

// SnapNearest rounds v to the nearest multiple of grid (ties go up).
func SnapNearest(v, grid int64) int64 {
	if grid <= 0 {
		return v
	}
	lo := SnapDown(v, grid)
	hi := lo + grid
	if v-lo < hi-v {
		return lo
	}
	return hi
}

// Interval is a 1-D closed-open interval [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Len returns the interval length (0 when degenerate or inverted).
func (iv Interval) Len() int64 {
	if iv.Hi <= iv.Lo {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Overlap returns the length of the overlap of two intervals.
func (iv Interval) Overlap(other Interval) int64 {
	lo := MaxInt64(iv.Lo, other.Lo)
	hi := MinInt64(iv.Hi, other.Hi)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Contains reports whether v lies inside the interval.
func (iv Interval) Contains(v int64) bool { return v >= iv.Lo && v < iv.Hi }
