// Package netlist defines the in-memory design database shared by every
// stage of the flow: instances bound to library masters, nets connecting
// instance pins and primary IO ports, the die outline and the clock
// constraint. It provides the geometric queries (pin positions, per-net and
// total HPWL, displacement) and the connectivity queries (drivers, fanout,
// topological structure) that the placer, row assignment, router, timing and
// power models are built on.
package netlist

import (
	"fmt"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/tech"
)

// NoNet marks an unconnected pin.
const NoNet int32 = -1

// PinRef identifies one pin: either pin Pin of instance Inst, or, when
// Inst == PortInst, primary IO port Pin.
type PinRef struct {
	Inst int32
	Pin  int32
}

// PortInst is the sentinel Inst value for primary IO ports.
const PortInst int32 = -1

// IsPort reports whether the reference names a primary IO port.
func (p PinRef) IsPort() bool { return p.Inst == PortInst }

// Net is a signal connecting pins. Exactly one pin should drive it (an
// instance output pin or an input port).
type Net struct {
	Name string
	Pins []PinRef
}

// Instance is one placed standard cell.
type Instance struct {
	Name   string
	Master *celllib.Master
	// Pos is the lower-left corner of the cell.
	Pos geom.Point
	// PinNets maps master pin index to net index (NoNet if unconnected).
	PinNets []int32
	// Fixed instances are never moved by placement or legalization.
	Fixed bool
	// Source remembers the pre-mLEF master while the design is in the
	// uniform-height mLEF representation; nil otherwise.
	Source *celllib.Master
}

// Width returns the instance width in DBU.
func (in *Instance) Width() int64 { return in.Master.Width }

// Height returns the instance height in DBU.
func (in *Instance) Height() int64 { return in.Master.RowH }

// Rect returns the instance footprint.
func (in *Instance) Rect() geom.Rect {
	return geom.Rect{Lo: in.Pos, Hi: geom.Point{X: in.Pos.X + in.Width(), Y: in.Pos.Y + in.Height()}}
}

// TrueHeight returns the track-height class of the instance, looking through
// the mLEF transform: while a design is in mLEF form, Master is a
// uniform-height stand-in and Source holds the real mixed-height master.
func (in *Instance) TrueHeight() tech.TrackHeight {
	if in.Source != nil {
		return in.Source.Height
	}
	return in.Master.Height
}

// TrueMaster returns the real (pre-mLEF) master.
func (in *Instance) TrueMaster() *celllib.Master {
	if in.Source != nil {
		return in.Source
	}
	return in.Master
}

// PortDir tells whether a primary port feeds the design or observes it.
type PortDir uint8

const (
	// In ports drive a net from outside.
	In PortDir = iota
	// Out ports are driven by the design.
	Out
)

// Port is a primary IO of the block, fixed on the die boundary.
type Port struct {
	Name string
	Dir  PortDir
	Pos  geom.Point
	Net  int32
}

// Design is the complete block under placement.
type Design struct {
	Name  string
	Tech  *tech.Tech
	Lib   *celllib.Library
	Insts []*Instance
	Nets  []*Net
	Ports []*Port
	// Die is the placeable area.
	Die geom.Rect
	// ClockPeriodPs is the target clock period in picoseconds.
	ClockPeriodPs float64
	// ClockNet indexes the clock net, or NoNet.
	ClockNet int32
}

// PinPos returns the absolute location of a pin reference.
func (d *Design) PinPos(ref PinRef) geom.Point {
	if ref.IsPort() {
		return d.Ports[ref.Pin].Pos
	}
	in := d.Insts[ref.Inst]
	return in.Pos.Add(in.Master.Pins[ref.Pin].Offset)
}

// NetHPWL returns the half-perimeter wirelength of one net.
func (d *Design) NetHPWL(net int32) int64 {
	n := d.Nets[net]
	var b geom.BBox
	for _, ref := range n.Pins {
		b.Extend(d.PinPos(ref))
	}
	return b.HalfPerimeter()
}

// TotalHPWL returns the design HPWL, excluding the clock net (as is usual
// for placement-quality reporting; the clock is routed as a tree, not
// point-to-point).
func (d *Design) TotalHPWL() int64 {
	var sum int64
	for i := range d.Nets {
		if int32(i) == d.ClockNet {
			continue
		}
		sum += d.NetHPWL(int32(i))
	}
	return sum
}

// Driver returns the pin reference driving a net: the unique instance output
// pin or input port on it. ok is false for undriven nets.
func (d *Design) Driver(net int32) (PinRef, bool) {
	for _, ref := range d.Nets[net].Pins {
		if ref.IsPort() {
			if d.Ports[ref.Pin].Dir == In {
				return ref, true
			}
			continue
		}
		in := d.Insts[ref.Inst]
		if in.Master.Pins[ref.Pin].Dir == celllib.Output {
			return ref, true
		}
	}
	return PinRef{}, false
}

// MinorityInstances returns indices of all 7.5T (minority) instances,
// classified by true (pre-mLEF) master height.
func (d *Design) MinorityInstances() []int32 {
	var out []int32
	for i, in := range d.Insts {
		if in.TrueHeight() == tech.Tall7p5T {
			out = append(out, int32(i))
		}
	}
	return out
}

// MinorityFraction returns the count fraction of minority instances.
func (d *Design) MinorityFraction() float64 {
	if len(d.Insts) == 0 {
		return 0
	}
	return float64(len(d.MinorityInstances())) / float64(len(d.Insts))
}

// MinorityAreaFraction returns the area fraction contributed by minority
// instances, using true masters.
func (d *Design) MinorityAreaFraction() float64 {
	var minority, total float64
	for _, in := range d.Insts {
		m := in.TrueMaster()
		a := float64(m.Width) * float64(m.RowH)
		total += a
		if m.Height == tech.Tall7p5T {
			minority += a
		}
	}
	if total == 0 {
		return 0
	}
	return minority / total
}

// TotalCellArea returns the summed footprint area of all instances (current
// masters, i.e. mLEF widths while in mLEF form).
func (d *Design) TotalCellArea() int64 {
	var sum int64
	for _, in := range d.Insts {
		sum += in.Width() * in.Height()
	}
	return sum
}

// Positions returns a snapshot of all instance positions; used to measure
// displacement between flow stages.
func (d *Design) Positions() []geom.Point {
	out := make([]geom.Point, len(d.Insts))
	for i, in := range d.Insts {
		out[i] = in.Pos
	}
	return out
}

// Displacement returns the summed Manhattan displacement of all instances
// from a reference snapshot (see Table IV of the paper).
func (d *Design) Displacement(ref []geom.Point) int64 {
	var sum int64
	for i, in := range d.Insts {
		if i >= len(ref) {
			break
		}
		sum += in.Pos.ManhattanDist(ref[i])
	}
	return sum
}

// Clone deep-copies the design; masters and library are shared (immutable).
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:          d.Name,
		Tech:          d.Tech,
		Lib:           d.Lib,
		Die:           d.Die,
		ClockPeriodPs: d.ClockPeriodPs,
		ClockNet:      d.ClockNet,
	}
	nd.Insts = make([]*Instance, len(d.Insts))
	for i, in := range d.Insts {
		ci := *in
		ci.PinNets = append([]int32(nil), in.PinNets...)
		nd.Insts[i] = &ci
	}
	nd.Nets = make([]*Net, len(d.Nets))
	for i, n := range d.Nets {
		cn := &Net{Name: n.Name, Pins: append([]PinRef(nil), n.Pins...)}
		nd.Nets[i] = cn
	}
	nd.Ports = make([]*Port, len(d.Ports))
	for i, p := range d.Ports {
		cp := *p
		nd.Ports[i] = &cp
	}
	return nd
}

// Validate checks referential integrity of the design database. It runs in
// O(instances + net pins): the pin-side back-reference check uses one flat
// array indexed by global pin slot instead of scanning each net's pin list,
// which matters on million-cell designs where a single clock net can carry
// hundreds of thousands of pins.
func (d *Design) Validate() error {
	if d.Tech == nil || d.Lib == nil {
		return fmt.Errorf("netlist: %s: missing tech or library", d.Name)
	}
	// Global pin slots: instance i's pins occupy [pinOff[i], pinOff[i+1]).
	pinOff := make([]int32, len(d.Insts)+1)
	for i, in := range d.Insts {
		if in.Master == nil {
			return fmt.Errorf("netlist: inst %d (%s): nil master", i, in.Name)
		}
		if len(in.PinNets) != len(in.Master.Pins) {
			return fmt.Errorf("netlist: inst %s: %d pin nets for %d master pins",
				in.Name, len(in.PinNets), len(in.Master.Pins))
		}
		pinOff[i+1] = pinOff[i] + int32(len(in.PinNets))
	}
	// backRef[slot] records a net that lists the pin (NoNet if none does).
	// A pin listed by several distinct nets still fails: PinNets can match
	// at most one of them, and the net-side loop below checks every net.
	backRef := make([]int32, pinOff[len(d.Insts)])
	for s := range backRef {
		backRef[s] = NoNet
	}
	for ni, n := range d.Nets {
		for _, ref := range n.Pins {
			if !ref.IsPort() && ref.Inst >= 0 && int(ref.Inst) < len(d.Insts) &&
				ref.Pin >= 0 && int(ref.Pin) < len(d.Insts[ref.Inst].PinNets) {
				backRef[pinOff[ref.Inst]+ref.Pin] = int32(ni)
			}
		}
	}
	for i, in := range d.Insts {
		for p, nn := range in.PinNets {
			if nn == NoNet {
				continue
			}
			if nn < 0 || int(nn) >= len(d.Nets) {
				return fmt.Errorf("netlist: inst %s pin %d: net %d out of range", in.Name, p, nn)
			}
			if backRef[pinOff[i]+int32(p)] != nn {
				return fmt.Errorf("netlist: inst %s pin %d: net %s lacks back reference",
					in.Name, p, d.Nets[nn].Name)
			}
		}
	}
	for ni, n := range d.Nets {
		for _, ref := range n.Pins {
			if ref.IsPort() {
				if ref.Pin < 0 || int(ref.Pin) >= len(d.Ports) {
					return fmt.Errorf("netlist: net %s: port %d out of range", n.Name, ref.Pin)
				}
				if d.Ports[ref.Pin].Net != int32(ni) {
					return fmt.Errorf("netlist: net %s: port %s back reference mismatch",
						n.Name, d.Ports[ref.Pin].Name)
				}
				continue
			}
			if ref.Inst < 0 || int(ref.Inst) >= len(d.Insts) {
				return fmt.Errorf("netlist: net %s: inst %d out of range", n.Name, ref.Inst)
			}
			in := d.Insts[ref.Inst]
			if ref.Pin < 0 || int(ref.Pin) >= len(in.PinNets) {
				return fmt.Errorf("netlist: net %s: pin %d out of range on %s", n.Name, ref.Pin, in.Name)
			}
			if in.PinNets[ref.Pin] != int32(ni) {
				return fmt.Errorf("netlist: net %s: inst %s pin %d back reference mismatch",
					n.Name, in.Name, ref.Pin)
			}
		}
	}
	if d.ClockNet != NoNet && (d.ClockNet < 0 || int(d.ClockNet) >= len(d.Nets)) {
		return fmt.Errorf("netlist: clock net %d out of range", d.ClockNet)
	}
	return nil
}

// Connect wires pin (inst, pin) onto net, maintaining both directions of the
// reference. It replaces any previous connection of that pin.
func (d *Design) Connect(inst, pin, net int32) {
	in := d.Insts[inst]
	if old := in.PinNets[pin]; old != NoNet {
		d.disconnect(old, PinRef{inst, pin})
	}
	in.PinNets[pin] = net
	if net != NoNet {
		d.Nets[net].Pins = append(d.Nets[net].Pins, PinRef{inst, pin})
	}
}

// ConnectPort wires a primary port onto a net.
func (d *Design) ConnectPort(port, net int32) {
	p := d.Ports[port]
	if p.Net != NoNet {
		d.disconnect(p.Net, PinRef{PortInst, port})
	}
	p.Net = net
	if net != NoNet {
		d.Nets[net].Pins = append(d.Nets[net].Pins, PinRef{PortInst, port})
	}
}

func (d *Design) disconnect(net int32, ref PinRef) {
	pins := d.Nets[net].Pins
	for i, p := range pins {
		if p == ref {
			d.Nets[net].Pins = append(pins[:i], pins[i+1:]...)
			return
		}
	}
}

// AddInstance appends an instance with unconnected pins and returns its
// index.
func (d *Design) AddInstance(name string, m *celllib.Master) int32 {
	in := &Instance{Name: name, Master: m, PinNets: make([]int32, len(m.Pins))}
	for i := range in.PinNets {
		in.PinNets[i] = NoNet
	}
	d.Insts = append(d.Insts, in)
	return int32(len(d.Insts) - 1)
}

// AddNet appends an empty net and returns its index.
func (d *Design) AddNet(name string) int32 {
	d.Nets = append(d.Nets, &Net{Name: name})
	return int32(len(d.Nets) - 1)
}

// AddPort appends a primary port (unconnected) and returns its index.
func (d *Design) AddPort(name string, dir PortDir, pos geom.Point) int32 {
	d.Ports = append(d.Ports, &Port{Name: name, Dir: dir, Pos: pos, Net: NoNet})
	return int32(len(d.Ports) - 1)
}

// Stats summarises a design for reporting (Table II columns).
type Stats struct {
	Cells        int
	Nets         int
	Ports        int
	MinorityPct  float64
	TotalHPWL    int64
	CellArea     int64
	DieArea      int64
	Utilization  float64
	MinorityArea float64
}

// ComputeStats gathers summary statistics.
func (d *Design) ComputeStats() Stats {
	s := Stats{
		Cells:        len(d.Insts),
		Nets:         len(d.Nets),
		Ports:        len(d.Ports),
		MinorityPct:  100 * d.MinorityFraction(),
		TotalHPWL:    d.TotalHPWL(),
		CellArea:     d.TotalCellArea(),
		DieArea:      d.Die.Area(),
		MinorityArea: d.MinorityAreaFraction(),
	}
	if s.DieArea > 0 {
		s.Utilization = float64(s.CellArea) / float64(s.DieArea)
	}
	return s
}
