package legalize

import (
	"context"
	"fmt"
	"sort"

	"mthplace/internal/check"
	"mthplace/internal/errs"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Uniform legalizes every movable instance onto the uniform (mLEF) row grid
// with classic Abacus — the finishing step of the unconstrained initial
// placement, Flow (1).
func Uniform(d *netlist.Design, g rowgrid.PairGrid) error {
	rows := make([]Row, 0, g.NumRows())
	for j := 0; j < g.NumRows(); j++ {
		rows = append(rows, Row{Y: g.RowY(j), X0: g.X0, X1: g.X1})
	}
	cells := make([]Cell, 0, len(d.Insts))
	for i, in := range d.Insts {
		if in.Fixed {
			continue
		}
		cells = append(cells, Cell{ID: int32(i), TargetX: in.Pos.X, TargetY: in.Pos.Y, W: in.Width()})
	}
	res, err := Abacus(cells, rows, d.Tech.SiteWidth)
	if err != nil {
		return fmt.Errorf("legalize: uniform: %w", err)
	}
	apply(d, res)
	return nil
}

// RowConstraint is a relaxed row-constraint legalization: Abacus modified so
// every cell's candidate rows are restricted to single rows of its own
// track-height (any island), minimising displacement from the incoming
// placement. The design must be in true mixed-height form (after
// lefdef.Revert). Cancellation is checked between the per-class passes.
func RowConstraint(ctx context.Context, d *netlist.Design, ms *rowgrid.MixedStack) error {
	for _, h := range []tech.TrackHeight{tech.Short6T, tech.Tall7p5T} {
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("legalize: row-constraint: %w", err)
		}
		if err := classAbacus(d, ms, h, nil); err != nil {
			return fmt.Errorf("legalize: row-constraint %s: %w", h, err)
		}
	}
	return nil
}

// RowConstraintAssigned is the prior work's legalization ([10], used by
// Flows (2) and (4)): every minority cell is bound to the row *pair the row
// assignment gave it* and legalized inside that pair with Abacus; only the
// overflow that physically cannot fit spills to other minority pairs. A
// capacity-violating assignment (the k-means baseline is capacity-naive)
// therefore pays with long spill displacement — exactly the failure mode
// the paper's capacity-aware ILP avoids under this same legalizer. Majority
// cells legalize freely over the majority rows. Cancellation is checked
// between pair packings, so a canceled ctx returns errs.ErrCanceled
// within one per-pair Abacus run.
func RowConstraintAssigned(ctx context.Context, d *netlist.Design, ms *rowgrid.MixedStack, cellPair map[int32]int) error {
	// Partition minority cells by assigned pair.
	byPair := map[int][]int32{}
	var unassigned []int32
	for i, in := range d.Insts {
		if in.Fixed || in.TrueHeight() != tech.Tall7p5T {
			continue
		}
		if p, ok := cellPair[int32(i)]; ok && p >= 0 && p < ms.NumPairs() && ms.Heights[p] == tech.Tall7p5T {
			byPair[p] = append(byPair[p], int32(i))
		} else {
			unassigned = append(unassigned, int32(i))
		}
	}
	site := d.Tech.SiteWidth
	capSites := 2 * (geom.SnapDown(ms.X1, site) - geom.SnapUp(ms.X0, site)) / site

	var spill []int32
	pairs := sortedPairKeys(byPair)
	for _, p := range pairs {
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("legalize: assigned: %w", err)
		}
		ids := byPair[p]
		// Keep the cells nearest the die x-center while they fit; the rest
		// are pushed out of the pair ([10]'s overflow behaviour).
		centerX := (ms.X0 + ms.X1) / 2
		sort.Slice(ids, func(a, b int) bool {
			da := geom.AbsInt64(d.Insts[ids[a]].Pos.X + d.Insts[ids[a]].Width()/2 - centerX)
			db := geom.AbsInt64(d.Insts[ids[b]].Pos.X + d.Insts[ids[b]].Width()/2 - centerX)
			if da != db {
				return da < db
			}
			return ids[a] < ids[b]
		})
		// Reserve headroom of twice the widest cell: a two-row pair can
		// strand up to one cell-width of free space per row to
		// fragmentation, and the pair must stay Abacus-feasible.
		var maxW int64
		for _, id := range ids {
			if w := (d.Insts[id].Width() + site - 1) / site; w > maxW {
				maxW = w
			}
		}
		budget := capSites - 2*maxW
		var used int64
		keep := ids[:0]
		for _, id := range ids {
			w := (d.Insts[id].Width() + site - 1) / site
			if used+w > budget {
				spill = append(spill, id)
				continue
			}
			used += w
			keep = append(keep, id)
		}
		lo, hi := ms.RowsOfPair(p)
		rows := []Row{{Y: lo, X0: ms.X0, X1: ms.X1}, {Y: hi, X0: ms.X0, X1: ms.X1}}
		cells := make([]Cell, 0, len(keep))
		for _, id := range keep {
			in := d.Insts[id]
			cells = append(cells, Cell{ID: id, TargetX: in.Pos.X, TargetY: in.Pos.Y, W: in.Width()})
		}
		res, err := Abacus(cells, rows, site)
		if err != nil {
			return fmt.Errorf("legalize: assigned pair %d: %w", p, err)
		}
		apply(d, res)
	}

	// Spilled and unassigned cells take whatever minority space is left.
	rest := append(spill, unassigned...)
	if len(rest) > 0 {
		var rows []Row
		for _, p := range ms.PairsOf(tech.Tall7p5T) {
			lo, hi := ms.RowsOfPair(p)
			rows = append(rows, Row{Y: lo, X0: ms.X0, X1: ms.X1}, Row{Y: hi, X0: ms.X0, X1: ms.X1})
		}
		// Occupancy of already-placed minority cells is modelled by seeding
		// the Abacus with them as immovable-ish targets: re-legalize all
		// minority cells together, placed ones at their fresh positions
		// (zero displacement for them), spilled ones at their origins.
		var cells []Cell
		for i, in := range d.Insts {
			if in.Fixed || in.TrueHeight() != tech.Tall7p5T {
				continue
			}
			cells = append(cells, Cell{ID: int32(i), TargetX: in.Pos.X, TargetY: in.Pos.Y, W: in.Width()})
		}
		res, err := Abacus(cells, rows, site)
		if err != nil {
			return fmt.Errorf("legalize: spill pass: %w", err)
		}
		apply(d, res)
	}

	// Majority cells.
	if err := classAbacus(d, ms, tech.Short6T, nil); err != nil {
		return fmt.Errorf("legalize: row-constraint majority: %w", err)
	}
	return nil
}

func sortedPairKeys(m map[int][]int32) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// FenceAware is the proposed row-constraint legalization (Flows (3) and
// (5)): it emulates the P&R tool's fence-region incremental placement. The
// minority cells — the fenced instance group — are seeded into their
// assigned fence rows (seedY maps instance index to the bottom y of its
// assigned minority pair; cells missing from the map fall to the nearest
// minority row) and then pulled to their HPWL-optimal positions inside the
// fence by median-improvement passes; the remaining cells are placed
// incrementally from the initial placement. Per-class Abacus finally packs
// each track-height class into its rows. Unlike RowConstraint, the fenced
// group is re-placed for wirelength, not for displacement from the initial
// placement ("we can freely assign all minority cells into the union of
// fence-regions", §III-D).
//
// Cancellation is checked between median-improvement passes and between the
// final per-class Abacus packings.
func FenceAware(ctx context.Context, d *netlist.Design, ms *rowgrid.MixedStack, seedY map[int32]int64, passes int) error {
	if passes <= 0 {
		passes = 3
	}
	// Seed minority cells into their fence rows.
	for i, in := range d.Insts {
		if in.Fixed || in.TrueHeight() != tech.Tall7p5T {
			continue
		}
		if y, ok := seedY[int32(i)]; ok {
			in.Pos.Y = y
			continue
		}
		if p, ok := ms.NearestPairOf(tech.Tall7p5T, in.Pos.Y); ok {
			in.Pos.Y = ms.Y[p]
		}
	}
	medianImprove(ctx, d, ms, passes, seedY, func(in *netlist.Instance) bool {
		return in.TrueHeight() == tech.Tall7p5T
	})
	for _, h := range []tech.TrackHeight{tech.Short6T, tech.Tall7p5T} {
		if err := errs.FromContext(ctx); err != nil {
			return fmt.Errorf("legalize: fence-aware: %w", err)
		}
		if err := classAbacus(d, ms, h, nil); err != nil {
			return fmt.Errorf("legalize: fence-aware %s: %w", h, err)
		}
	}
	return nil
}

// classAbacus runs Abacus for one track-height class over the rows of that
// class. Optional targets overrides the Abacus target position per instance.
func classAbacus(d *netlist.Design, ms *rowgrid.MixedStack, h tech.TrackHeight, targets map[int32]geom.Point) error {
	var rows []Row
	for _, p := range ms.PairsOf(h) {
		lo, hi := ms.RowsOfPair(p)
		rows = append(rows, Row{Y: lo, X0: ms.X0, X1: ms.X1}, Row{Y: hi, X0: ms.X0, X1: ms.X1})
	}
	var cells []Cell
	for i, in := range d.Insts {
		if in.Fixed || in.TrueHeight() != h {
			continue
		}
		t := in.Pos
		if targets != nil {
			if tp, ok := targets[int32(i)]; ok {
				t = tp
			}
		}
		cells = append(cells, Cell{ID: int32(i), TargetX: t.X, TargetY: t.Y, W: in.Width()})
	}
	if len(cells) == 0 {
		return nil
	}
	res, err := Abacus(cells, rows, d.Tech.SiteWidth)
	if err != nil {
		return err
	}
	apply(d, res)
	return nil
}

func apply(d *netlist.Design, res Result) {
	for id, pos := range res {
		d.Insts[id].Pos = pos
	}
}

// medianImprove sweeps the movable instances selected by want, moving each
// to the median of its connected pin positions (the 1-D HPWL optimum). A
// cell listed in lockY keeps its y pinned to its assigned pair (the RAP's
// capacity-balanced island choice is preserved; only x and the choice of
// the pair's two single rows are optimised); other cells snap to the
// nearest row of their track-height class. The clock net is ignored.
// Cancellation stops the sweep at the next pass boundary; an aborted
// improvement pass leaves the design consistent (the caller still errors
// out before using it).
func medianImprove(ctx context.Context, d *netlist.Design, ms *rowgrid.MixedStack, passes int, lockY map[int32]int64, want func(*netlist.Instance) bool) {
	for pass := 0; pass < passes; pass++ {
		if ctx.Err() != nil {
			return
		}
		for i, in := range d.Insts {
			if in.Fixed || !want(in) {
				continue
			}
			xs, ys := connectedPinCoords(d, int32(i))
			if len(xs) == 0 {
				continue
			}
			sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
			sort.Slice(ys, func(a, b int) bool { return ys[a] < ys[b] })
			mx := xs[len(xs)/2] - in.Width()/2
			my := ys[len(ys)/2] - in.Height()/2
			mx = geom.ClampInt64(mx, ms.X0, ms.X1-in.Width())
			if lock, ok := lockY[int32(i)]; ok {
				// Stay in the assigned pair; pick the closer single row.
				pair := pairAt(ms, lock)
				if pair >= 0 {
					lo, hi := ms.RowsOfPair(pair)
					if geom.AbsInt64(my-lo) <= geom.AbsInt64(my-hi) {
						my = lo
					} else {
						my = hi
					}
				} else {
					my = lock
				}
			} else if p, ok := ms.NearestPairOf(in.TrueHeight(), my); ok {
				lo, hi := ms.RowsOfPair(p)
				if geom.AbsInt64(my-lo) <= geom.AbsInt64(my-hi) {
					my = lo
				} else {
					my = hi
				}
			}
			in.Pos = geom.Point{X: mx, Y: my}
		}
	}
}

// pairAt returns the pair index whose bottom y equals y, or -1.
func pairAt(ms *rowgrid.MixedStack, y int64) int {
	for i := 0; i < ms.NumPairs(); i++ {
		if ms.Y[i] == y {
			return i
		}
	}
	return -1
}

// connectedPinCoords returns the positions of all pins connected to the
// instance through its nets, excluding the instance's own pins and the
// clock net.
func connectedPinCoords(d *netlist.Design, inst int32) (xs, ys []int64) {
	in := d.Insts[inst]
	for _, net := range in.PinNets {
		if net == netlist.NoNet || net == d.ClockNet {
			continue
		}
		for _, ref := range d.Nets[net].Pins {
			if !ref.IsPort() && ref.Inst == inst {
				continue
			}
			p := d.PinPos(ref)
			xs = append(xs, p.X)
			ys = append(ys, p.Y)
		}
	}
	return xs, ys
}

// VerifyMixed reports whether d is legal on the mixed stack ms, as judged
// by the independent auditor check.Placement. Nothing in the flows calls
// it: it exists only because the frozen benchmark mirror
// (cmd/bench/mirror.go) times the flows' legality check under this name,
// and it goes together with that mirror (ROADMAP item 1).
func VerifyMixed(d *netlist.Design, ms *rowgrid.MixedStack) error {
	return check.Placement(d, ms).Err()
}
