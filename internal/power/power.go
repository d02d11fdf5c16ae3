// Package power computes the total power column of Table V: switching power
// on routed nets, internal (short-circuit + local) power of cells, and
// leakage.
//
// With capacitance in fF, voltage in volts and the clock period in
// picoseconds, the switching term fF·V²/ps lands directly in milliwatts;
// internal energy in fJ per toggle likewise; leakage in nW is converted.
package power

import (
	"fmt"

	"mthplace/internal/celllib"
	"mthplace/internal/netlist"
)

// Options tune the power model.
type Options struct {
	// NetLength optionally supplies routed lengths (route.Result.NetLength);
	// nil falls back to HPWL.
	NetLength []int64
	// Activity is the average toggle rate per clock cycle (default 0.15).
	Activity float64
}

// clockActivity is the clock net's toggle rate: 1.0 by definition, two
// edges in one full cycle.
const clockActivity = 1.0

func (o Options) withDefaults() Options {
	if o.Activity <= 0 {
		o.Activity = 0.15
	}
	return o
}

// Result is the power breakdown in milliwatts.
type Result struct {
	SwitchingMW float64
	InternalMW  float64
	LeakageMW   float64
}

// TotalMW returns the summed power.
func (r *Result) TotalMW() float64 { return r.SwitchingMW + r.InternalMW + r.LeakageMW }

// Analyze computes total power for the design's current placement/routing.
func Analyze(d *netlist.Design, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if d.ClockPeriodPs <= 0 {
		return nil, fmt.Errorf("power: design %s has no clock period", d.Name)
	}
	t := d.Tech
	res := &Result{}
	vv := t.SupplyVoltage * t.SupplyVoltage
	freq := 1.0 / d.ClockPeriodPs // 1/ps

	wireLen := func(ni int32) int64 {
		if opt.NetLength != nil && int(ni) < len(opt.NetLength) {
			return opt.NetLength[ni]
		}
		return d.NetHPWL(ni)
	}

	for ni := range d.Nets {
		l := float64(wireLen(int32(ni)))
		c := l * t.WireCapPerDBU
		for _, ref := range d.Nets[ni].Pins {
			if ref.IsPort() {
				continue
			}
			in := d.Insts[ref.Inst]
			if in.Master.Pins[ref.Pin].Dir == celllib.Input {
				c += in.Master.InputCap(int(ref.Pin))
			}
		}
		act := opt.Activity
		if int32(ni) == d.ClockNet {
			act = clockActivity
		}
		res.SwitchingMW += 0.5 * act * c * vv * freq
	}

	for _, in := range d.Insts {
		act := opt.Activity
		if in.Master.Sequential {
			// Flops toggle internally with the clock.
			act = 0.5 * (opt.Activity + clockActivity)
		}
		res.InternalMW += in.Master.InternalEnergy * act * freq
		res.LeakageMW += in.Master.Leakage * 1e-6
	}
	return res, nil
}
