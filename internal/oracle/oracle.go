// Package oracle provides the exact small-instance reference solver and the
// constraint auditors used to differentially verify the RAP pipeline. It is
// test infrastructure promoted to a package: the brute-force solver
// re-derives the optimum of the paper's ILP (Eqs. (3)–(5)) by exhaustive
// enumeration, and the cost recompute re-derives the f_cr matrix
// (Eq. (2)) from first principles, so neither shares code — or bugs — with
// internal/core and internal/rap. Differential tests compare the two on
// randomized instances; any future solver optimisation that silently breaks
// optimality or feasibility fails against this package.
//
// The solver is exponential (it enumerates the feasible assignment space)
// and is meant for instances up to roughly 8 clusters × 8 rows; SolveBudget
// bounds the enumeration so a mis-sized call fails fast instead of hanging.
package oracle

import (
	"fmt"
	"math"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
)

// SolveBudget caps the number of enumeration nodes Solve may visit. The
// default is generous for 8×8 instances (the capacity and row-count pruning
// keep the visited space far below NR^NC) while still failing fast on
// accidentally huge models.
const SolveBudget = 64 << 20

// Solve finds the exact optimum of the RAP instance by exhaustively
// enumerating every feasible cluster→pair assignment: each cluster may take
// any pair, subject to the pair capacity (Eq. 4) and to the number of
// distinct used pairs never exceeding N_minR (Eq. 5). The returned
// assignment mirrors core's conventions — MinorityPairs is padded with the
// lowest-index unused pairs up to exactly N_minR, and ties in the objective
// keep the lexicographically first assignment.
//
// It returns errs.ErrInfeasible when no feasible assignment exists, and a
// budget error when the enumeration would exceed SolveBudget nodes.
func Solve(m *core.Model) (*core.Assignment, error) {
	nC, nR := m.Clusters.N(), m.NR
	if m.NminR <= 0 || m.NminR > nR {
		return nil, errs.Infeasible("oracle: N_minR %d out of range (1..%d)", m.NminR, nR)
	}
	if nC == 0 {
		out := &core.Assignment{ClusterPair: []int{}}
		padPairs(out, m.NminR, nR)
		out.Stats.Method = "oracle"
		return out, nil
	}

	cur := make([]int, nC)
	load := make([]int64, nR)
	usage := make([]int, nR) // clusters currently on each pair
	used := 0                // distinct pairs in use
	best := math.Inf(1)
	var bestAssign []int
	nodes := 0

	var dfs func(c int, obj float64) error
	dfs = func(c int, obj float64) error {
		if c == nC {
			if obj < best {
				best = obj
				bestAssign = append(bestAssign[:0], cur...)
			}
			return nil
		}
		w := m.Clusters.Width[c]
		for r := 0; r < nR; r++ {
			nodes++
			if nodes > SolveBudget {
				return fmt.Errorf("oracle: enumeration exceeds budget of %d nodes (%d clusters × %d rows)",
					SolveBudget, nC, nR)
			}
			if load[r]+w > m.Cap {
				continue
			}
			opening := usage[r] == 0
			if opening && used == m.NminR {
				continue // Eq. 5: no more distinct pairs available
			}
			cur[c] = r
			load[r] += w
			usage[r]++
			if opening {
				used++
			}
			if err := dfs(c+1, obj+m.Cost[c][r]); err != nil {
				return err
			}
			if opening {
				used--
			}
			usage[r]--
			load[r] -= w
		}
		return nil
	}
	if err := dfs(0, 0); err != nil {
		return nil, err
	}
	if bestAssign == nil {
		return nil, errs.Infeasible("oracle: no feasible assignment (%d clusters, %d rows, N_minR %d, cap %d)",
			nC, nR, m.NminR, m.Cap)
	}

	out := &core.Assignment{ClusterPair: bestAssign, Objective: best}
	seen := map[int]bool{}
	for _, r := range bestAssign {
		if !seen[r] {
			seen[r] = true
			out.MinorityPairs = append(out.MinorityPairs, r)
		}
	}
	padPairs(out, m.NminR, nR)
	out.Stats.Method = "oracle"
	return out, nil
}

// padPairs tops MinorityPairs up to exactly nMinR pairs with the
// lowest-index unused pairs and sorts the set — the same convention
// core.padMinorityPairs uses (empty minority rows are legal).
func padPairs(a *core.Assignment, nMinR, nR int) {
	have := map[int]bool{}
	for _, r := range a.MinorityPairs {
		have[r] = true
	}
	for r := 0; len(a.MinorityPairs) < nMinR && r < nR; r++ {
		if !have[r] {
			a.MinorityPairs = append(a.MinorityPairs, r)
			have[r] = true
		}
	}
	// Insertion sort: the set is tiny and already nearly sorted.
	for i := 1; i < len(a.MinorityPairs); i++ {
		for j := i; j > 0 && a.MinorityPairs[j] < a.MinorityPairs[j-1]; j-- {
			a.MinorityPairs[j], a.MinorityPairs[j-1] = a.MinorityPairs[j-1], a.MinorityPairs[j]
		}
	}
}

// ObjectiveTol is the float tolerance used when auditing a reported
// objective against the recomputed Σ f_cr.
const ObjectiveTol = 1e-6

// Feasibility audits a RAP assignment against the paper's constraints from
// first principles:
//
//	Eq. 3 — every cluster is assigned exactly one pair, and that pair is in
//	        the minority set;
//	Eq. 4 — per-pair load Σ w(c) ≤ w(r);
//	Eq. 5 — exactly N_minR distinct minority pairs, all in range.
//
// It also recomputes the objective Σ f_cr and cross-checks the reported
// value. A nil return means the assignment satisfies all of them.
func Feasibility(m *core.Model, a *core.Assignment) error {
	nC, nR := m.Clusters.N(), m.NR
	if len(a.ClusterPair) != nC {
		return fmt.Errorf("oracle: Eq. 3: %d cluster assignments for %d clusters", len(a.ClusterPair), nC)
	}
	// Eq. 5: exact cardinality, range, uniqueness.
	if len(a.MinorityPairs) != m.NminR {
		return fmt.Errorf("oracle: Eq. 5: %d minority pairs, want exactly %d", len(a.MinorityPairs), m.NminR)
	}
	minority := make(map[int]bool, len(a.MinorityPairs))
	for _, r := range a.MinorityPairs {
		if r < 0 || r >= nR {
			return fmt.Errorf("oracle: Eq. 5: minority pair %d out of range (0..%d)", r, nR-1)
		}
		if minority[r] {
			return fmt.Errorf("oracle: Eq. 5: minority pair %d listed twice", r)
		}
		minority[r] = true
	}
	// Eq. 3 + Eq. 4.
	load := make([]int64, nR)
	var obj float64
	for c, r := range a.ClusterPair {
		if r < 0 || r >= nR {
			return fmt.Errorf("oracle: Eq. 3: cluster %d assigned to pair %d, out of range", c, r)
		}
		if !minority[r] {
			return fmt.Errorf("oracle: Eq. 3: cluster %d assigned to pair %d, which is not a minority pair", c, r)
		}
		load[r] += m.Clusters.Width[c]
		obj += m.Cost[c][r]
	}
	for r, l := range load {
		if l > m.Cap {
			return fmt.Errorf("oracle: Eq. 4: pair %d load %d exceeds capacity %d", r, l, m.Cap)
		}
	}
	if diff := math.Abs(obj - a.Objective); diff > ObjectiveTol*math.Max(1, math.Abs(obj)) {
		return fmt.Errorf("oracle: objective: reported %g, recomputed Σ f_cr = %g (diff %g)", a.Objective, obj, diff)
	}
	return nil
}

// CostMatrix recomputes the f_cr matrix of Eq. (2) from first principles,
// independently of core.BuildModel: displacement is the summed |Δy| of the
// member cell centers to the pair center, and ΔHPWL is obtained by
// re-evaluating each incident net's full bounding box with the member's own
// pins actually shifted — no incremental net-box bookkeeping. Member, net
// and accumulation order mirror BuildModel so the two matrices are
// comparable at float precision.
func CostMatrix(d *netlist.Design, g rowgrid.PairGrid, cl *core.Clusters, p core.CostParams) [][]float64 {
	cost := make([][]float64, cl.N())
	for c := 0; c < cl.N(); c++ {
		row := make([]float64, g.N)
		for r := 0; r < g.N; r++ {
			pairCY := g.PairCenterY(r)
			var disp, dhpwl float64
			for _, i := range cl.Members[c] {
				in := d.Insts[i]
				dy := pairCY - (in.Pos.Y + in.Height()/2)
				disp += float64(geom.AbsInt64(dy))
				seen := map[int32]bool{}
				for _, net := range in.PinNets {
					if net == netlist.NoNet || net == d.ClockNet || seen[net] {
						continue
					}
					seen[net] = true
					before := netHPWLShifted(d, net, i, 0)
					after := netHPWLShifted(d, net, i, dy)
					dhpwl += float64(after - before)
				}
			}
			row[r] = p.Alpha*disp + (1-p.Alpha)*dhpwl
		}
		cost[c] = row
	}
	return cost
}

// netHPWLShifted returns the half-perimeter of a net's pin bounding box with
// instance inst's own pins shifted vertically by dy.
func netHPWLShifted(d *netlist.Design, net, inst int32, dy int64) int64 {
	var b geom.BBox
	for _, ref := range d.Nets[net].Pins {
		pt := d.PinPos(ref)
		if !ref.IsPort() && ref.Inst == inst {
			pt.Y += dy
		}
		b.Extend(pt)
	}
	return b.HalfPerimeter()
}
