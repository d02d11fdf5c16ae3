// Package heightswap implements the paper's other future-work direction:
// swapping the track-heights of cells after row-constraint placement. A
// timing-critical 6T cell is upgraded to its (stronger) 7.5T variant and a
// timing-slack 7.5T cell is downgraded to 6T in exchange, so the minority
// row capacity stays balanced while worst-case timing improves and leakage
// on non-critical paths drops.
//
// The pass works on a legalized mixed-height placement: it scores cells by
// the arrival time of their output nets (from STA with net details),
// proposes upgrade/downgrade pairs, applies them, re-legalizes both height
// classes, and keeps the swap set only when WNS actually improved.
package heightswap

import (
	"context"
	"fmt"
	"sort"

	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/errs"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/sta"
	"mthplace/internal/tech"
)

// Options tune the pass.
type Options struct {
	// MaxSwaps bounds the number of upgrade/downgrade pairs per round
	// (default: 2% of the minority count, at least 4).
	MaxSwaps int
	// Rounds is the number of propose/verify rounds (default 2).
	Rounds int
	// STA configures the timing analysis used for scoring and
	// verification.
	STA sta.Options
}

// Report describes what the pass did.
type Report struct {
	// Rounds actually executed.
	Rounds int
	// SwapsApplied counts accepted upgrade/downgrade pairs.
	SwapsApplied int
	// WNSBefore/WNSAfter in ps (paper sign convention: ≤ 0).
	WNSBefore, WNSAfter float64
	// TNSBefore/TNSAfter in ps.
	TNSBefore, TNSAfter float64
	// LeakageDeltaNW is the change in leakage from the swaps (negative =
	// saved).
	LeakageDeltaNW float64
}

// Optimize runs the height-swap pass in place. The design must be in true
// mixed-height form on the given stack (legalized); it is re-legalized
// after accepted swaps and stays legal on return. Cancellation is checked
// between propose/verify rounds, so an aborted run still leaves a legal
// placement.
func Optimize(ctx context.Context, d *netlist.Design, ms *rowgrid.MixedStack, opt Options) (*Report, error) {
	if opt.Rounds <= 0 {
		opt.Rounds = 2
	}
	base, err := sta.Analyze(d, withDetails(opt.STA))
	if err != nil {
		return nil, err
	}
	rep := &Report{WNSBefore: base.WNSps, TNSBefore: base.TNSps}
	rep.WNSAfter, rep.TNSAfter = base.WNSps, base.TNSps

	for round := 0; round < opt.Rounds; round++ {
		if err := errs.FromContext(ctx); err != nil {
			return nil, fmt.Errorf("heightswap: %w", err)
		}
		cur, err := sta.Analyze(d, withDetails(opt.STA))
		if err != nil {
			return nil, err
		}
		ups, downs := proposeSwaps(d, cur, opt)
		if len(ups) == 0 || len(downs) == 0 {
			break
		}
		n := len(ups)
		if len(downs) < n {
			n = len(downs)
		}
		// Snapshot for rollback.
		savedMasters := make([]*celllib.Master, len(d.Insts))
		savedPos := d.Positions()
		for i, in := range d.Insts {
			savedMasters[i] = in.Master
		}
		var leakDelta float64
		for k := 0; k < n; k++ {
			leakDelta += applySwap(d, ups[k], tech.Tall7p5T)
			leakDelta += applySwap(d, downs[k], tech.Short6T)
		}
		if err := legalize.RowConstraint(ctx, d, ms); err != nil {
			return nil, fmt.Errorf("heightswap: re-legalization: %w", err)
		}
		after, err := sta.Analyze(d, withDetails(opt.STA))
		if err != nil {
			return nil, err
		}
		if after.WNSps+1e-9 < rep.WNSAfter || (after.WNSps <= rep.WNSAfter && after.TNSps < rep.TNSAfter) {
			// Worse (more negative) — roll back and stop.
			for i, in := range d.Insts {
				in.Master = savedMasters[i]
				in.Pos = savedPos[i]
			}
			break
		}
		rep.Rounds++
		rep.SwapsApplied += n
		rep.WNSAfter, rep.TNSAfter = after.WNSps, after.TNSps
		rep.LeakageDeltaNW += leakDelta
	}
	if err := check.Placement(d, ms).Err(); err != nil {
		return nil, fmt.Errorf("heightswap: final placement illegal: %w", err)
	}
	return rep, nil
}

func withDetails(o sta.Options) sta.Options {
	o.WantNetDetails = true
	return o
}

// proposeSwaps returns upgrade candidates (critical 6T cells, most critical
// first) and downgrade candidates (slack-rich 7.5T cells, most slack
// first). Only cells whose variant exists in the library qualify;
// sequential cells are left alone (swapping a flop changes clocking
// assumptions).
func proposeSwaps(d *netlist.Design, timing *sta.Result, opt Options) (ups, downs []int32) {
	minority := len(d.MinorityInstances())
	maxSwaps := opt.MaxSwaps
	if maxSwaps <= 0 {
		maxSwaps = minority / 50
		if maxSwaps < 4 {
			maxSwaps = 4
		}
	}
	type cand struct {
		inst  int32
		slack float64
	}
	var upC, downC []cand
	for i, in := range d.Insts {
		m := in.Master
		if m.Sequential {
			continue
		}
		out := m.OutputPin()
		net := in.PinNets[out]
		if net == netlist.NoNet || int(net) >= len(timing.NetSlack) {
			continue
		}
		slack := timing.NetSlack[net]
		if d.Lib.Variant(m, m.Height.Other()) == nil {
			continue
		}
		if m.Height == tech.Short6T && slack < 0 {
			upC = append(upC, cand{int32(i), slack})
		}
		if m.Height == tech.Tall7p5T && slack > 0.2*d.ClockPeriodPs {
			downC = append(downC, cand{int32(i), slack})
		}
	}
	sort.Slice(upC, func(a, b int) bool {
		if upC[a].slack != upC[b].slack {
			return upC[a].slack < upC[b].slack // most negative first
		}
		return upC[a].inst < upC[b].inst
	})
	sort.Slice(downC, func(a, b int) bool {
		if downC[a].slack != downC[b].slack {
			return downC[a].slack > downC[b].slack // most slack first
		}
		return downC[a].inst < downC[b].inst
	})
	for k := 0; k < len(upC) && k < maxSwaps; k++ {
		ups = append(ups, upC[k].inst)
	}
	for k := 0; k < len(downC) && k < maxSwaps; k++ {
		downs = append(downs, downC[k].inst)
	}
	return ups, downs
}

// applySwap changes the instance to its other-height variant and returns
// the leakage delta in nW.
func applySwap(d *netlist.Design, inst int32, to tech.TrackHeight) float64 {
	in := d.Insts[inst]
	v := d.Lib.Variant(in.Master, to)
	if v == nil || v == in.Master {
		return 0
	}
	delta := v.Leakage - in.Master.Leakage
	in.Master = v
	return delta
}
