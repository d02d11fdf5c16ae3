package cluster

import "math"

// centroidGrid buckets the centroids of one KMeans2D call in a uniform grid
// over the samples' bounding box, so a sample's nearest centroid is found
// by searching rings of cells outward from its own cell instead of scanning
// all k centroids. The search returns exactly what the scan returns: the
// lowest-index centroid among those at the minimum distance, with the
// distance computed by the same expression.
//
// The geometry is fixed for the call; bucket re-fills the CSR arrays in
// place once per Lloyd iteration. A centroid that rounding puts just
// outside the box is clamped into the nearest edge cell, which keeps every
// ring bound valid.
type centroidGrid struct {
	x0, y0 float64 // lower-left corner of the box
	w, h   float64 // cell size
	sx, sy float64 // cells per unit length; 0 on a one-cell axis
	nx, ny int
	// slack is an absolute allowance for rounding in cell indices and cell
	// edges; ring bounds subtract it so they never exceed a true distance.
	slack float64
	// start/items are the CSR buckets: the centroids of cell c are
	// items[start[c]:start[c+1]], in increasing index.
	start []int32
	items []int32
}

// newCentroidGrid sizes a grid of about k cells over the bounding box of
// pts, with cells as square as the box allows. A box that is not finite
// gets a single cell, which degenerates to the full scan.
func newCentroidGrid(pts []Point2, k int) *centroidGrid {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	g := &centroidGrid{x0: minX, y0: minY, nx: 1, ny: 1}
	W, H := maxX-minX, maxY-minY
	finite := W >= 0 && H >= 0 && !math.IsInf(W, 0) && !math.IsInf(H, 0)
	switch {
	case !finite:
	case W > 0 && H > 0:
		g.nx = int(math.Round(math.Sqrt(float64(k) * W / H)))
		g.nx = min(max(g.nx, 1), k)
		g.ny = max((k+g.nx-1)/g.nx, 1)
	case W > 0:
		g.nx = k
	case H > 0:
		g.ny = k
	}
	if g.nx > 1 {
		g.w, g.sx = W/float64(g.nx), float64(g.nx)/W
	}
	if g.ny > 1 {
		g.h, g.sy = H/float64(g.ny), float64(g.ny)/H
	}
	if finite {
		g.slack = 1e-12 * (math.Abs(minX) + math.Abs(maxX) + math.Abs(minY) + math.Abs(maxY))
	}
	g.start = make([]int32, g.nx*g.ny+1)
	g.items = make([]int32, k)
	return g
}

// index maps a coordinate to its cell along one axis. NaN and values
// below the box map to cell 0, values above it to the last cell.
func index(v, v0, scale float64, n int) int {
	f := (v - v0) * scale
	if !(f >= 0) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// cell returns the grid cell of q in row-major order.
func (g *centroidGrid) cell(q Point2) int {
	return index(q.Y, g.y0, g.sy, g.ny)*g.nx + index(q.X, g.x0, g.sx, g.nx)
}

// bucket refills the CSR arrays with cent by a counting sort.
func (g *centroidGrid) bucket(cent []Point2) {
	clear(g.start)
	for _, q := range cent {
		g.start[g.cell(q)+1]++
	}
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	// Filling advances start[cell] to the end of its bucket; shift back after.
	for c, q := range cent {
		cell := g.cell(q)
		g.items[g.start[cell]] = int32(c)
		g.start[cell]++
	}
	copy(g.start[1:], g.start)
	g.start[0] = 0
}

// nearest returns the index of the centroid nearest to p, breaking ties by
// lowest index — the result of scanning cent in order with a strict "<".
// Rings of cells around p's cell are searched until every unsearched
// centroid is strictly farther than the best one, or the grid is
// exhausted.
func (g *centroidGrid) nearest(p Point2, cent []Point2) int {
	cx := index(p.X, g.x0, g.sx, g.nx)
	cy := index(p.Y, g.y0, g.sy, g.ny)
	best, bestD := 0, math.Inf(1)
	for r := 0; ; r++ {
		xlo, xhi, ylo, yhi := cx-r, cx+r, cy-r, cy+r
		for y := max(ylo, 0); y <= min(yhi, g.ny-1); y++ {
			row := y * g.nx
			if y == ylo || y == yhi {
				lo, hi := row+max(xlo, 0), row+min(xhi, g.nx-1)
				best, bestD = g.scan(g.start[lo], g.start[hi+1], p, cent, best, bestD)
				continue
			}
			if xlo >= 0 {
				best, bestD = g.scan(g.start[row+xlo], g.start[row+xlo+1], p, cent, best, bestD)
			}
			if xhi < g.nx {
				best, bestD = g.scan(g.start[row+xhi], g.start[row+xhi+1], p, cent, best, bestD)
			}
		}
		// Every unsearched centroid lies beyond one side of the searched
		// block, so its distance is at least the squared gap to that side.
		lb, more := math.Inf(1), false
		if xlo > 0 {
			lb, more = min(lb, g.bound(p.X-(g.x0+float64(xlo)*g.w))), true
		}
		if xhi < g.nx-1 {
			lb, more = min(lb, g.bound(g.x0+float64(xhi+1)*g.w-p.X)), true
		}
		if ylo > 0 {
			lb, more = min(lb, g.bound(p.Y-(g.y0+float64(ylo)*g.h))), true
		}
		if yhi < g.ny-1 {
			lb, more = min(lb, g.bound(g.y0+float64(yhi+1)*g.h-p.Y)), true
		}
		if !more || lb > bestD {
			return best
		}
	}
}

// scan folds the centroids items[from:to] into the running best. Adjacent
// cells of one grid row are contiguous in items, so one call covers a run
// of cells.
func (g *centroidGrid) scan(from, to int32, p Point2, cent []Point2, best int, bestD float64) (int, float64) {
	for _, c := range g.items[from:to] {
		q := cent[c]
		d := sq(p.X-q.X) + sq(p.Y-q.Y)
		if d < bestD || (d == bestD && int(c) < best) {
			best, bestD = int(c), d
		}
	}
	return best, bestD
}

// bound is a lower bound on the computed squared distance of a centroid
// whose coordinate differs from the sample's by at least gap, less the
// rounding slack. Float rounding is monotone, so the computed distance of
// such a centroid is never below the computed square of a smaller gap.
func (g *centroidGrid) bound(gap float64) float64 {
	gap -= g.slack
	if !(gap > 0) {
		return 0
	}
	return gap * gap
}
