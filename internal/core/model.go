// Package core implements the paper's primary contribution: the Row
// Assignment Problem (RAP) for mixed track-height row-constraint placement.
//
// Given an unconstrained initial placement of a design in mLEF (uniform
// height) form on a uniform row-pair grid, the RAP decides which pairs
// become minority (7.5T) rows and which minority-cell cluster goes to which
// pair, minimising
//
//	f_cr = α·Disp(c,r) + (1−α)·ΔHPWL(c,r)                    (Eq. 2)
//
// subject to unique assignment (Eq. 3), row capacity (Eq. 4) and the
// minority-row count N_minR (Eq. 5). The ILP of Eqs. (1)–(5) is solved
// exactly by the structure-aware internal/rap branch and bound (Solve);
// 2-D k-means clustering of the minority cells (§III-B) keeps the variable
// count N_C × N_R small.
package core

import (
	"context"
	"fmt"
	"math"

	"mthplace/internal/cluster"
	"mthplace/internal/errs"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/obs"
	"mthplace/internal/par"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Clusters groups the minority cells for the ILP (§III-B).
type Clusters struct {
	// Members lists minority instance indices per cluster.
	Members [][]int32
	// Width is the summed *original* (pre-mLEF) cell width per cluster —
	// the paper uses original widths so the capacity constraint reflects
	// the final mixed-height geometry.
	Width []int64
	// CenterX/CenterY are cluster centroids in the initial placement.
	CenterX, CenterY []float64
}

// N returns the cluster count.
func (c *Clusters) N() int { return len(c.Members) }

// clusterInput returns the k-means samples of BuildClusters — the minority
// cells' centers with y stretched by yw so clusters come out about one pair
// tall — and the cluster count N_C = round(s·N_minC) clamped to
// [1, N_minC]. minority must be non-empty.
func clusterInput(d *netlist.Design, minority []int32, s float64) (pts []cluster.Point2, nC int, yw float64) {
	nC = int(math.Round(s * float64(len(minority))))
	if nC < 1 {
		nC = 1
	}
	if nC > len(minority) {
		nC = len(minority)
	}
	pairH := float64(d.Tech.MLEFPairHeight(d.MinorityAreaFraction()))
	nR := float64(d.Die.H()) / pairH
	p := math.Ceil(math.Sqrt(float64(nC)))
	yw = nR / p
	if yw < 1 {
		yw = 1
	}
	pts = make([]cluster.Point2, len(minority))
	for k, i := range minority {
		c := d.Insts[i].Rect().Center()
		pts[k] = cluster.Point2{X: float64(c.X), Y: float64(c.Y) * yw}
	}
	return pts, nC, yw
}

// BuildClusters clusters the design's minority cells with 2-D k-means at
// clustering resolution s (N_C = max(1, round(s·N_minC))), seeding centroids
// on the paper's p×p grid. s ≥ 1 degenerates to one cell per cluster
// (exactly the unclustered ILP); s ≤ 0 is an error.
//
// Because every cluster is assigned to a single row pair, a cluster must be
// vertically compact: its members travel together to one y. The clustering
// therefore weighs the y coordinate so that the expected cluster extent is
// about one pair height — with an isotropic p×p grid over the die a cluster
// spans ≈ N_R/p pairs, so y is stretched by that factor before k-means
// (pure geometry rescaling; centroids are reported in real coordinates).
func BuildClusters(ctx context.Context, d *netlist.Design, s float64, kmeansIters int) (*Clusters, error) {
	if s <= 0 {
		return nil, fmt.Errorf("core: clustering resolution %f must be positive", s)
	}
	minority := d.MinorityInstances()
	if len(minority) == 0 {
		return &Clusters{}, nil
	}
	if kmeansIters <= 0 {
		kmeansIters = 30
	}
	pts, nC, yw := clusterInput(d, minority, s)
	var res *cluster.Result
	if nC == len(minority) {
		// Degenerate: identity clustering, skip Lloyd iterations.
		res = &cluster.Result{Assign: make([]int, len(minority)), Centroids: make([]cluster.Point2, nC), Sizes: make([]int, nC)}
		for k := range minority {
			res.Assign[k] = k
			res.Centroids[k] = pts[k]
			res.Sizes[k] = 1
		}
	} else {
		res = cluster.KMeans2D(ctx, pts, nC, kmeansIters)
		// KMeans2D stops within one Lloyd iteration of a cancel; its
		// partial result must not feed the ILP.
		if err := errs.FromContext(ctx); err != nil {
			return nil, fmt.Errorf("core: clustering: %w", err)
		}
	}
	out := &Clusters{
		Members: make([][]int32, res.K()),
		Width:   make([]int64, res.K()),
		CenterX: make([]float64, res.K()),
		CenterY: make([]float64, res.K()),
	}
	for k, i := range minority {
		c := res.Assign[k]
		out.Members[c] = append(out.Members[c], i)
		out.Width[c] += d.Insts[i].TrueMaster().Width
	}
	for c := 0; c < res.K(); c++ {
		out.CenterX[c] = res.Centroids[c].X
		out.CenterY[c] = res.Centroids[c].Y / yw
	}
	// Drop empty clusters (k-means reseeding should prevent them, but the
	// ILP must never see a zero-width cluster).
	w := 0
	for c := 0; c < out.N(); c++ {
		if len(out.Members[c]) == 0 {
			continue
		}
		out.Members[w] = out.Members[c]
		out.Width[w] = out.Width[c]
		out.CenterX[w] = out.CenterX[c]
		out.CenterY[w] = out.CenterY[c]
		w++
	}
	out.Members = out.Members[:w]
	out.Width = out.Width[:w]
	out.CenterX = out.CenterX[:w]
	out.CenterY = out.CenterY[:w]
	return out, nil
}

// Model is the prepared RAP instance: the f_cr cost matrix and capacities.
type Model struct {
	Clusters *Clusters
	// NR is the number of row pairs.
	NR int
	// NminR is the required minority pair count (Eq. 5).
	NminR int
	// Cost[c][r] = f_cr in DBU.
	Cost [][]float64
	// Cap is the row-pair capacity in DBU of cell width (two single rows).
	Cap int64
	// PairCenterY caches the uniform-grid pair centers.
	PairCenterY []int64
}

// CostParams tune the cost model.
type CostParams struct {
	// Alpha weights displacement against ΔHPWL (paper: 0.75).
	Alpha float64
}

// DefaultCostParams mirror the paper's chosen parameters.
func DefaultCostParams() CostParams {
	return CostParams{Alpha: 0.75}
}

// BuildModel computes the f_cr matrix for all clusters × pairs on the
// uniform grid. Displacement sums |y(r) − y(cell)| of the member cells;
// ΔHPWL sums, over each member cell's nets, the HPWL change when the cell
// moves vertically to pair r at unchanged x (§III-C).
func BuildModel(ctx context.Context, d *netlist.Design, g rowgrid.PairGrid, cl *Clusters, nMinR int, p CostParams) (*Model, error) {
	if p.Alpha < 0 || p.Alpha > 1 {
		return nil, fmt.Errorf("core: alpha %f out of [0,1]", p.Alpha)
	}
	if g.N == 0 {
		return nil, fmt.Errorf("core: empty row grid")
	}
	if nMinR <= 0 || nMinR > g.N {
		return nil, fmt.Errorf("core: N_minR %d out of range (1..%d)", nMinR, g.N)
	}
	m := &Model{
		Clusters:    cl,
		NR:          g.N,
		NminR:       nMinR,
		Cap:         2 * g.Width(),
		Cost:        make([][]float64, cl.N()),
		PairCenterY: make([]int64, g.N),
	}
	for r := 0; r < g.N; r++ {
		m.PairCenterY[r] = g.PairCenterY(r)
	}
	// Capacity sanity: the chosen N_minR must be able to host every cluster.
	var totalW int64
	for _, w := range cl.Width {
		totalW += w
		if w > m.Cap {
			return nil, errs.Infeasible("core: cluster width %d exceeds row capacity %d (lower s)", w, m.Cap)
		}
	}
	if totalW > int64(nMinR)*m.Cap {
		return nil, errs.Infeasible("core: minority width %d exceeds %d rows × capacity %d", totalW, nMinR, m.Cap)
	}
	if err := errs.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("core: cost model: %w", err)
	}
	span := obs.StartSpan(ctx, "core.buildmodel")
	span.SetArg("clusters", cl.N())
	span.SetArg("rows", g.N)
	defer span.End()

	// Every cluster's cost row is independent of the others, so the outer
	// loop runs on the context's worker pool. Each worker precomputes its
	// own members' net boxes (clusters partition the minority cells, so no
	// box is computed twice) and scans rows and members in the same order
	// the sequential path would — the per-(c,r) float accumulation order is
	// fixed, making the matrix bit-identical at any pool bound.
	par.FromContext(ctx).For(cl.N(), func(c int) {
		boxes := make([][]netBoxT, len(cl.Members[c]))
		for mi, i := range cl.Members[c] {
			boxes[mi] = buildNetBoxes(d, i)
		}
		row := make([]float64, g.N)
		for r := 0; r < g.N; r++ {
			var disp, dhpwl float64
			for mi, i := range cl.Members[c] {
				in := d.Insts[i]
				cellCY := in.Pos.Y + in.Height()/2
				dy := m.PairCenterY[r] - cellCY
				disp += float64(geom.AbsInt64(dy))
				for _, nb := range boxes[mi] {
					dhpwl += float64(netDeltaHPWL(nb.othersRect(), nb.hasOther,
						nb.ownXLo, nb.ownXHi, nb.ownYLo, nb.ownYHi, dy))
				}
			}
			row[r] = p.Alpha*disp + (1-p.Alpha)*dhpwl
		}
		m.Cost[c] = row
	})
	return m, nil
}

// netBoxes as a standalone type so helpers stay testable.
type netBoxT struct {
	others         geom.Rect
	hasOther       bool
	ownXLo, ownXHi int64
	ownYLo, ownYHi int64
}

func (nb netBoxT) othersRect() geom.Rect { return nb.others }

// buildNetBoxes collects, for every non-clock net on instance i, the
// bounding box of the other pins and the instance's own pin extents.
func buildNetBoxes(d *netlist.Design, i int32) []netBoxT {
	in := d.Insts[i]
	seen := map[int32]bool{}
	var out []netBoxT
	for _, net := range in.PinNets {
		if net == netlist.NoNet || net == d.ClockNet || seen[net] {
			continue
		}
		seen[net] = true
		var others geom.BBox
		var own geom.BBox
		for _, ref := range d.Nets[net].Pins {
			p := d.PinPos(ref)
			if !ref.IsPort() && ref.Inst == i {
				own.Extend(p)
				continue
			}
			others.Extend(p)
		}
		if !own.Valid() {
			continue
		}
		or := own.Rect()
		out = append(out, netBoxT{
			others:   others.Rect(),
			hasOther: others.Valid(),
			ownXLo:   or.Lo.X, ownXHi: or.Hi.X,
			ownYLo: or.Lo.Y, ownYHi: or.Hi.Y,
		})
	}
	return out
}

// netDeltaHPWL returns the HPWL change of one net when the cell's own pins
// shift vertically by dy (x unchanged).
func netDeltaHPWL(others geom.Rect, hasOther bool, ownXLo, ownXHi, ownYLo, ownYHi, dy int64) int64 {
	if !hasOther {
		return 0 // net fully inside the cell: rigid shift, HPWL unchanged
	}
	before := boxHP(others, ownXLo, ownXHi, ownYLo, ownYHi)
	after := boxHP(others, ownXLo, ownXHi, ownYLo+dy, ownYHi+dy)
	return after - before
}

func boxHP(o geom.Rect, xlo, xhi, ylo, yhi int64) int64 {
	loX, hiX := geom.MinInt64(o.Lo.X, xlo), geom.MaxInt64(o.Hi.X, xhi)
	loY, hiY := geom.MinInt64(o.Lo.Y, ylo), geom.MaxInt64(o.Hi.Y, yhi)
	return (hiX - loX) + (hiY - loY)
}

// Heights converts a chosen minority pair set into the per-pair height
// vector used to restack the die.
func (m *Model) Heights(minorityPairs []int) []tech.TrackHeight {
	hs := make([]tech.TrackHeight, m.NR)
	for _, r := range minorityPairs {
		if r >= 0 && r < m.NR {
			hs[r] = tech.Tall7p5T
		}
	}
	return hs
}
