// Package sta is the static timing analyser used for the post-route WNS and
// TNS columns of Table V. It propagates arrival times through the
// combinational timing graph with a linear delay model:
//
//	cell delay  = intrinsic + driveRes × (wireCap + Σ sink pin caps)
//	wire delay  = wireRes × (wireCap/2 + sinkCap)        (lumped Elmore)
//
// Wire parasitics come from per-net routed lengths when a routing result is
// supplied, falling back to HPWL otherwise. Launch points are input ports
// and flip-flop clock-to-Q arcs; capture points are flip-flop D pins and
// output ports, both against an ideal clock of the design's period.
package sta

import (
	"fmt"
	"math"

	"mthplace/internal/celllib"
	"mthplace/internal/netlist"
)

// Options tune the analysis.
type Options struct {
	// NetLength optionally maps net index to routed length in DBU
	// (route.Result.NetLength); nil falls back to net HPWL.
	NetLength []int64
	// WantNetDetails additionally fills Result.NetArrival / NetSlack.
	WantNetDetails bool
}

const (
	// setupPs is the flip-flop setup time. The clock is ideal: flops launch
	// with no clock-network latency.
	setupPs = 8
	// inputDelayFrac sets the arrival time at input ports to 0.1·T,
	// imitating upstream logic, as signoff constraints normally do.
	inputDelayFrac = 0.1
)

// Result of a timing run.
type Result struct {
	// WNSps is the worst negative slack in picoseconds (0 when all paths
	// meet timing; negative when violating, matching the paper's sign
	// convention where more negative is worse).
	WNSps float64
	// TNSps is the total negative slack (sum over violating endpoints).
	TNSps float64
	// ViolatingEndpoints counts endpoints with negative slack.
	ViolatingEndpoints int
	// Endpoints is the total endpoint count.
	Endpoints int
	// CriticalPathPs is the maximum endpoint arrival time.
	CriticalPathPs float64
	// NetArrival, when requested via Options.WantNetDetails, holds the
	// arrival time at each net's driver output (−Inf for never-driven
	// nets). Consumers (e.g. the height-swap optimiser) derive per-cell
	// criticality from it.
	NetArrival []float64
	// NetSlack, when requested, is the worst endpoint slack downstream-est
	// approximation: T − setup − arrival for the net itself (positive =
	// noncritical). Only meaningful for nets on register/output cones.
	NetSlack []float64
}

// Analyze runs STA on the design's current placement/routing.
func Analyze(d *netlist.Design, opt Options) (*Result, error) {
	if d.ClockPeriodPs <= 0 {
		return nil, fmt.Errorf("sta: design %s has no clock period", d.Name)
	}
	t := d.Tech

	// Per-net wire parasitics.
	wireLen := func(ni int32) int64 {
		if opt.NetLength != nil && int(ni) < len(opt.NetLength) {
			return opt.NetLength[ni]
		}
		return d.NetHPWL(ni)
	}

	// netLoad = wire cap + sum of sink pin caps; also record sink caps.
	nNets := len(d.Nets)
	netWireCap := make([]float64, nNets)
	netWireRes := make([]float64, nNets)
	netLoad := make([]float64, nNets)
	for ni := 0; ni < nNets; ni++ {
		l := float64(wireLen(int32(ni)))
		netWireCap[ni] = l * t.WireCapPerDBU
		netWireRes[ni] = l * t.WireResPerDBU
		load := netWireCap[ni]
		for _, ref := range d.Nets[ni].Pins {
			if ref.IsPort() {
				continue
			}
			in := d.Insts[ref.Inst]
			if in.Master.Pins[ref.Pin].Dir == celllib.Input {
				load += in.Master.InputCap(int(ref.Pin))
			}
		}
		netLoad[ni] = load
	}

	// Arrival times per net (at the driver output, after the driving cell).
	arr := make([]float64, nNets)
	for i := range arr {
		arr[i] = math.Inf(-1)
	}

	// Topological order over combinational instances: Kahn's algorithm on
	// the instance graph (combinational inputs only).
	nIns := len(d.Insts)
	indeg := make([]int, nIns)
	fanout := make([][]int32, nIns) // driver inst -> sink combinational insts
	for i, in := range d.Insts {
		if in.Master.Sequential {
			continue
		}
		for p, pin := range in.Master.Pins {
			if pin.Dir != celllib.Input {
				continue
			}
			net := in.PinNets[p]
			if net == netlist.NoNet || net == d.ClockNet {
				continue
			}
			drv, ok := d.Driver(net)
			if !ok || drv.IsPort() {
				continue
			}
			if d.Insts[drv.Inst].Master.Sequential {
				continue
			}
			indeg[i]++
			fanout[drv.Inst] = append(fanout[drv.Inst], int32(i))
		}
	}

	inputDelay := inputDelayFrac * d.ClockPeriodPs

	// Seed arrivals: input ports and sequential outputs.
	for pi, p := range d.Ports {
		if p.Dir != netlist.In || p.Net == netlist.NoNet || p.Net == d.ClockNet {
			continue
		}
		if a := inputDelay; a > arr[p.Net] {
			arr[p.Net] = a
		}
		_ = pi
	}
	queue := make([]int32, 0, nIns)
	for i, in := range d.Insts {
		if in.Master.Sequential {
			out := in.Master.OutputPin()
			net := in.PinNets[out]
			if net != netlist.NoNet {
				a := in.Master.IntrinsicDelay + in.Master.DriveRes*netLoad[net]
				if a > arr[net] {
					arr[net] = a
				}
			}
			continue
		}
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}

	// Propagate.
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		in := d.Insts[i]
		// Max input arrival including wire delay into each pin.
		worst := math.Inf(-1)
		for p, pin := range in.Master.Pins {
			if pin.Dir != celllib.Input {
				continue
			}
			net := in.PinNets[p]
			if net == netlist.NoNet || net == d.ClockNet {
				continue
			}
			if math.IsInf(arr[net], -1) {
				continue // undriven net contributes nothing
			}
			wd := netWireRes[net] * (netWireCap[net]/2 + in.Master.InputCap(p))
			if a := arr[net] + wd; a > worst {
				worst = a
			}
		}
		if math.IsInf(worst, -1) {
			worst = 0
		}
		out := in.Master.OutputPin()
		net := in.PinNets[out]
		if net != netlist.NoNet {
			a := worst + in.Master.IntrinsicDelay + in.Master.DriveRes*netLoad[net]
			if a > arr[net] {
				arr[net] = a
			}
		}
		for _, s := range fanout[i] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	combCount := 0
	for _, in := range d.Insts {
		if !in.Master.Sequential {
			combCount++
		}
	}
	if processed != combCount {
		return nil, fmt.Errorf("sta: combinational loop detected (%d of %d cells levelised)",
			processed, combCount)
	}

	// Endpoint slacks.
	res := &Result{}
	checkEndpoint := func(arrival, required float64) {
		res.Endpoints++
		if arrival > res.CriticalPathPs {
			res.CriticalPathPs = arrival
		}
		slack := required - arrival
		if slack < 0 {
			res.ViolatingEndpoints++
			res.TNSps += slack
			if slack < res.WNSps {
				res.WNSps = slack
			}
		}
	}
	T := d.ClockPeriodPs
	for i, in := range d.Insts {
		if !in.Master.Sequential {
			continue
		}
		_ = i
		for p, pin := range in.Master.Pins {
			if pin.Dir != celllib.Input || pin.Name == "CK" {
				continue
			}
			net := in.PinNets[p]
			if net == netlist.NoNet || math.IsInf(arr[net], -1) {
				continue
			}
			wd := netWireRes[net] * (netWireCap[net]/2 + in.Master.InputCap(p))
			checkEndpoint(arr[net]+wd, T-setupPs)
		}
	}
	for _, p := range d.Ports {
		if p.Dir != netlist.Out || p.Net == netlist.NoNet {
			continue
		}
		if math.IsInf(arr[p.Net], -1) {
			continue
		}
		checkEndpoint(arr[p.Net], T)
	}
	if opt.WantNetDetails {
		res.NetArrival = arr
		res.NetSlack = make([]float64, nNets)
		for ni := range res.NetSlack {
			if math.IsInf(arr[ni], -1) {
				res.NetSlack[ni] = math.Inf(1)
				continue
			}
			res.NetSlack[ni] = T - setupPs - arr[ni]
		}
	}
	return res, nil
}
