// Package check is the placement invariant checker: a set of independent
// auditors that validate any flow output from first principles — cells on
// the site grid, every cell in a single row of a pair matching its
// track-height, no overlaps, minority cells contained in the fence regions,
// and the reported displacement/HPWL totals cross-checked against a naive
// recompute. It deliberately re-derives everything (no reuse of the
// legalizer's code or the netlist's cached accessors beyond pin positions)
// so a bug in a production path cannot hide in its checker. It is the only
// definition of placement legality in the module: the legalizers place, and
// this package judges.
//
// The auditors return a Report listing every violation instead of stopping
// at the first, which makes negative tests and -verify diagnostics precise.
// They are wired in at these call sites:
//   - every flow that places onto a mixed stack (Flows 2–5 in
//     flow.Runner.runConstraint and the FinFlex flow in
//     flow.Runner.RunFinFlex) ends in Placement through the runner's shared
//     epilogue, so no illegal placement is returned as a result;
//   - heightswap.Optimize audits its final placement with Placement;
//   - flow.Runner.VerifyResult runs every auditor, automatically behind
//     Config.Verify and directly in the rcplace -verify mode;
//   - the unit, chaos and golden tests;
//   - VerifyMixed in package legalize is a one-line wrapper over Placement,
//     kept only for the frozen benchmark mirror in cmd/bench.
package check

import (
	"fmt"
	"sort"
	"strings"

	"mthplace/internal/fence"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Violation is one broken invariant.
type Violation struct {
	// Invariant names the broken rule (e.g. "site-grid", "row-height",
	// "overlap", "fence", "metrics-hpwl").
	Invariant string
	// Inst is the offending instance index, or -1 when not instance-bound.
	Inst int
	// Msg describes the violation.
	Msg string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Inst >= 0 {
		return fmt.Sprintf("[%s] inst %d: %s", v.Invariant, v.Inst, v.Msg)
	}
	return fmt.Sprintf("[%s] %s", v.Invariant, v.Msg)
}

// Report collects the violations found by one or more auditors.
type Report struct {
	Violations []Violation
}

// Ok reports whether no invariant was violated.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report, or an error summarising the first
// violations (all of them remain available in Violations).
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	const show = 5
	msgs := make([]string, 0, show+1)
	for i, v := range r.Violations {
		if i == show {
			msgs = append(msgs, fmt.Sprintf("… and %d more", len(r.Violations)-show))
			break
		}
		msgs = append(msgs, v.String())
	}
	return fmt.Errorf("check: %d violation(s): %s", len(r.Violations), strings.Join(msgs, "; "))
}

// Merge appends another report's violations.
func (r *Report) Merge(other *Report) *Report {
	r.Violations = append(r.Violations, other.Violations...)
	return r
}

func (r *Report) add(invariant string, inst int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{invariant, inst, fmt.Sprintf(format, args...)})
}

// Stack audits the internal consistency of a restacked die: pair bottoms
// strictly increasing, each pair's span equal to its recorded height, and a
// positive row span.
func Stack(ms *rowgrid.MixedStack) *Report {
	rep := &Report{}
	if ms.X0 >= ms.X1 {
		rep.add("stack", -1, "row span [%d,%d) is empty", ms.X0, ms.X1)
	}
	if len(ms.Y) != ms.NumPairs()+1 || len(ms.PairH) != ms.NumPairs() {
		rep.add("stack", -1, "inconsistent lengths: %d heights, %d bottoms, %d pair heights",
			ms.NumPairs(), len(ms.Y), len(ms.PairH))
		return rep
	}
	for i := 0; i < ms.NumPairs(); i++ {
		if ms.PairH[i] <= 0 {
			rep.add("stack", -1, "pair %d has non-positive height %d", i, ms.PairH[i])
		}
		if ms.Y[i+1] != ms.Y[i]+ms.PairH[i] {
			rep.add("stack", -1, "pair %d: top %d ≠ bottom %d + height %d", i, ms.Y[i+1], ms.Y[i], ms.PairH[i])
		}
	}
	return rep
}

// Placement audits mixed-stack legality from first principles: every
// instance x-aligned to the site grid, inside the row span, sitting exactly
// on a single row of a pair whose track-height matches the instance's true
// (pre-mLEF) height, with no two cells overlapping in a row.
func Placement(d *netlist.Design, ms *rowgrid.MixedStack) *Report {
	rep := Stack(ms)
	// Legal single-row bottoms per track-height class.
	rowsOf := map[tech.TrackHeight]map[int64]bool{}
	for i := 0; i < ms.NumPairs(); i++ {
		h := ms.Heights[i]
		if rowsOf[h] == nil {
			rowsOf[h] = map[int64]bool{}
		}
		lo, hi := ms.RowsOfPair(i)
		rowsOf[h][lo] = true
		rowsOf[h][hi] = true
	}
	occupied := map[int64][]span{}
	for i, in := range d.Insts {
		auditCell(rep, d, i, in, ms.X0, ms.X1, occupied, func() error {
			if !rowsOf[in.TrueHeight()][in.Pos.Y] {
				return fmt.Errorf("y=%d is not a %s row bottom", in.Pos.Y, in.TrueHeight())
			}
			return nil
		})
	}
	auditOverlaps(rep, occupied)
	return rep
}

// PlacementUniform audits legality on the uniform (mLEF) pair grid — the
// Flow (1) output, where every cell has the same stand-in height.
func PlacementUniform(d *netlist.Design, g rowgrid.PairGrid) *Report {
	rep := &Report{}
	occupied := map[int64][]span{}
	for i, in := range d.Insts {
		auditCell(rep, d, i, in, g.X0, g.X1, occupied, func() error {
			off := in.Pos.Y - g.Y0
			if off < 0 || g.RowH() == 0 || off%g.RowH() != 0 || int(off/g.RowH()) >= g.NumRows() {
				return fmt.Errorf("y=%d is not a uniform row bottom", in.Pos.Y)
			}
			return nil
		})
	}
	auditOverlaps(rep, occupied)
	return rep
}

type span struct {
	lo, hi int64
	inst   int
}

// auditCell applies the per-cell invariants shared by the mixed and uniform
// auditors and records the cell's row occupancy for the overlap scan.
func auditCell(rep *Report, d *netlist.Design, i int, in *netlist.Instance, x0, x1 int64, occupied map[int64][]span, rowCheck func() error) {
	if in.Pos.X%d.Tech.SiteWidth != 0 {
		rep.add("site-grid", i, "x=%d not a multiple of site width %d", in.Pos.X, d.Tech.SiteWidth)
	}
	if in.Pos.X < x0 || in.Pos.X+in.Width() > x1 {
		rep.add("row-span", i, "footprint [%d,%d) outside row span [%d,%d)", in.Pos.X, in.Pos.X+in.Width(), x0, x1)
	}
	if err := rowCheck(); err != nil {
		rep.add("row-height", i, "%v", err)
		return // an off-row cell would poison the overlap scan
	}
	occupied[in.Pos.Y] = append(occupied[in.Pos.Y], span{in.Pos.X, in.Pos.X + in.Width(), i})
}

// auditOverlaps flags every pair of cells sharing x-extent in a row.
func auditOverlaps(rep *Report, occupied map[int64][]span) {
	ys := make([]int64, 0, len(occupied))
	for y := range occupied {
		ys = append(ys, y)
	}
	sort.Slice(ys, func(a, b int) bool { return ys[a] < ys[b] })
	for _, y := range ys {
		spans := occupied[y]
		sort.Slice(spans, func(a, b int) bool {
			if spans[a].lo != spans[b].lo {
				return spans[a].lo < spans[b].lo
			}
			return spans[a].inst < spans[b].inst
		})
		for k := 1; k < len(spans); k++ {
			if spans[k].lo < spans[k-1].hi {
				rep.add("overlap", spans[k].inst, "overlaps inst %d in row y=%d ([%d,%d) vs [%d,%d))",
					spans[k-1].inst, y, spans[k-1].lo, spans[k-1].hi, spans[k].lo, spans[k].hi)
			}
		}
	}
}

// Fences audits the §III-D fence discipline: the minority islands derived
// from the stack are contiguous pair runs that exactly cover the minority
// pairs, and every minority cell's footprint lies inside one island
// rectangle. (Majority cells cannot enter a fence without also failing the
// row-height invariant, so that side is covered by Placement.)
func Fences(d *netlist.Design, ms *rowgrid.MixedStack) *Report {
	rep := &Report{}
	regions := fence.FromStack(ms)
	covered := map[int]bool{}
	for k, pairs := range regions.Pairs {
		for j, p := range pairs {
			if j > 0 && p != pairs[j-1]+1 {
				rep.add("fence", -1, "island %d pairs %v are not contiguous", k, pairs)
				break
			}
			if ms.Heights[p] != tech.Tall7p5T {
				rep.add("fence", -1, "island %d covers pair %d of height %s", k, p, ms.Heights[p])
			}
			covered[p] = true
		}
	}
	for _, p := range ms.PairsOf(tech.Tall7p5T) {
		if !covered[p] {
			rep.add("fence", -1, "minority pair %d not covered by any island", p)
		}
	}
	for i, in := range d.Insts {
		if in.TrueHeight() != tech.Tall7p5T {
			continue
		}
		if !regions.ContainsRect(in.Rect()) {
			rep.add("fence", i, "minority footprint %v outside every fence island", in.Rect())
		}
	}
	return rep
}

// Metrics cross-checks reported placement metrics against a naive
// recompute: total HPWL as the per-net pin bounding-box half-perimeter sum
// (clock net excluded, as the flows report it) and total displacement as
// the summed Manhattan distance from the reference snapshot.
func Metrics(d *netlist.Design, ref []geom.Point, claimedDisp, claimedHPWL int64) *Report {
	rep := &Report{}
	var hpwl int64
	for ni := range d.Nets {
		if int32(ni) == d.ClockNet {
			continue
		}
		var lox, hix, loy, hiy int64
		first := true
		for _, pr := range d.Nets[ni].Pins {
			p := d.PinPos(pr)
			if first {
				lox, hix, loy, hiy = p.X, p.X, p.Y, p.Y
				first = false
				continue
			}
			if p.X < lox {
				lox = p.X
			}
			if p.X > hix {
				hix = p.X
			}
			if p.Y < loy {
				loy = p.Y
			}
			if p.Y > hiy {
				hiy = p.Y
			}
		}
		if !first {
			hpwl += (hix - lox) + (hiy - loy)
		}
	}
	if hpwl != claimedHPWL {
		rep.add("metrics-hpwl", -1, "reported HPWL %d, recomputed %d", claimedHPWL, hpwl)
	}
	if ref != nil {
		if len(ref) != len(d.Insts) {
			rep.add("metrics-disp", -1, "reference snapshot has %d positions for %d instances", len(ref), len(d.Insts))
		} else {
			var disp int64
			for i, in := range d.Insts {
				disp += geom.AbsInt64(in.Pos.X-ref[i].X) + geom.AbsInt64(in.Pos.Y-ref[i].Y)
			}
			if disp != claimedDisp {
				rep.add("metrics-disp", -1, "reported displacement %d, recomputed %d", claimedDisp, disp)
			}
		}
	}
	return rep
}

// Netlist audits the design database's referential integrity (pin↔net back
// references, index ranges) via the netlist's own validator, folded into a
// Report so it composes with the geometric auditors.
func Netlist(d *netlist.Design) *Report {
	rep := &Report{}
	if err := d.Validate(); err != nil {
		rep.add("netlist", -1, "%v", err)
	}
	return rep
}
