// Package celllib provides the synthetic mixed track-height standard-cell
// library used by the reproduction. It stands in for the ASAP7 7.5T
// (version 28) and 6T (version 26) libraries of the paper: every logic
// function exists in both track-heights and in RVT and LVT threshold
// flavours, with widths quantised to placement sites and simple
// linear-delay-model timing and power parameters.
//
// The library is deliberately small but complete enough that the synthetic
// netlist generator, the placer, the timing analyser and the power model all
// consume it through the same interfaces a real LEF/Liberty pair would
// provide: geometry (width, height, pin offsets), drive (output resistance,
// intrinsic delay), load (input pin capacitance) and power (internal energy
// per transition, leakage).
package celllib

import (
	"fmt"
	"sort"

	"mthplace/internal/geom"
	"mthplace/internal/tech"
)

// VT is a threshold-voltage flavour.
type VT uint8

const (
	// RVT is the regular threshold flavour.
	RVT VT = iota
	// LVT is the low threshold flavour: faster, leakier.
	LVT
)

// String implements fmt.Stringer.
func (v VT) String() string {
	if v == LVT {
		return "LVT"
	}
	return "RVT"
}

// Kind is a logic function implemented by the library.
type Kind uint8

// The logic functions available in the synthetic library.
const (
	INV Kind = iota
	BUF
	NAND2
	NOR2
	AND2
	OR2
	NAND3
	NOR3
	AOI21
	OAI21
	XOR2
	XNOR2
	MUX2
	FA // full adder (3 inputs, models its sum output)
	DFF
	numKinds
)

var kindNames = [numKinds]string{
	"INV", "BUF", "NAND2", "NOR2", "AND2", "OR2", "NAND3", "NOR3",
	"AOI21", "OAI21", "XOR2", "XNOR2", "MUX2", "FA", "DFF",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// kindSpec captures per-function base parameters (for the x1 RVT 6T cell).
type kindSpec struct {
	kind       Kind
	inputs     int
	baseSites  int64   // width in sites at drive x1
	growSites  int64   // extra sites per doubling of drive
	baseDelay  float64 // intrinsic delay, ps
	baseRes    float64 // drive resistance, kOhm
	baseCap    float64 // input pin capacitance, fF
	baseEnergy float64 // internal energy per output transition, fJ
	baseLeak   float64 // leakage, nW
	sequential bool
	drives     []int // available drive strengths
}

// kindSpecs is indexed by Kind.
var kindSpecs = []kindSpec{
	{INV, 1, 1, 1, 4, 2.4, 0.60, 0.35, 0.9, false, []int{1, 2, 4, 8}},
	{BUF, 1, 2, 1, 7, 2.2, 0.65, 0.55, 1.2, false, []int{1, 2, 4, 8}},
	{NAND2, 2, 2, 1, 6, 2.8, 0.70, 0.60, 1.4, false, []int{1, 2, 4}},
	{NOR2, 2, 2, 1, 7, 3.1, 0.72, 0.62, 1.4, false, []int{1, 2, 4}},
	{AND2, 2, 3, 1, 9, 2.7, 0.68, 0.80, 1.7, false, []int{1, 2, 4}},
	{OR2, 2, 3, 1, 10, 2.9, 0.70, 0.82, 1.7, false, []int{1, 2, 4}},
	{NAND3, 3, 3, 1, 8, 3.2, 0.74, 0.85, 1.9, false, []int{1, 2}},
	{NOR3, 3, 3, 1, 9, 3.6, 0.76, 0.88, 1.9, false, []int{1, 2}},
	{AOI21, 3, 3, 1, 9, 3.3, 0.75, 0.90, 2.0, false, []int{1, 2}},
	{OAI21, 3, 3, 1, 9, 3.4, 0.75, 0.90, 2.0, false, []int{1, 2}},
	{XOR2, 2, 5, 2, 13, 3.8, 1.00, 1.40, 2.6, false, []int{1, 2}},
	{XNOR2, 2, 5, 2, 13, 3.8, 1.00, 1.40, 2.6, false, []int{1, 2}},
	{MUX2, 3, 5, 2, 12, 3.5, 0.95, 1.30, 2.5, false, []int{1, 2}},
	{FA, 3, 8, 2, 18, 4.2, 1.20, 2.20, 3.8, false, []int{1}},
	{DFF, 2, 9, 2, 22, 3.0, 0.80, 2.80, 4.6, true, []int{1, 2}},
}

// PinDir is a pin direction.
type PinDir uint8

const (
	// Input pin.
	Input PinDir = iota
	// Output pin.
	Output
)

// PinDef describes one pin of a master cell.
type PinDef struct {
	Name   string
	Dir    PinDir
	Offset geom.Point // relative to the cell's lower-left corner
	Cap    float64    // input capacitance in fF (0 for outputs)
}

// Master is one library cell: a function at a drive strength, track-height
// and VT flavour.
type Master struct {
	Name   string
	Kind   Kind
	Height tech.TrackHeight
	VT     VT
	Drive  int
	// Sites is the cell width in placement sites; Width is in DBU.
	Sites int64
	Width int64
	// RowH is the single-row cell height in DBU.
	RowH int64
	// Pins lists input pins first, then the single output pin.
	Pins []PinDef
	// Timing/power parameters for the linear delay model:
	// delay(ps) = IntrinsicDelay + DriveRes(kOhm) * load(fF).
	IntrinsicDelay float64
	DriveRes       float64
	// InternalEnergy is consumed per output transition (fJ).
	InternalEnergy float64
	// Leakage is static power in nW.
	Leakage float64
	// Sequential marks flip-flops.
	Sequential bool
}

// InputCap returns the capacitance of input pin i in fF.
func (m *Master) InputCap(i int) float64 {
	if i < 0 || i >= len(m.Pins) || m.Pins[i].Dir != Input {
		return 0
	}
	return m.Pins[i].Cap
}

// OutputPin returns the index of the output pin, or -1.
func (m *Master) OutputPin() int {
	for i, p := range m.Pins {
		if p.Dir == Output {
			return i
		}
	}
	return -1
}

// Library is an immutable set of masters over a technology.
type Library struct {
	Tech    *tech.Tech
	masters []*Master
	byName  map[string]*Master
	byKey   map[masterKey]*Master
}

// masterKey identifies a master by what Find looks it up by.
type masterKey struct {
	kind   Kind
	drive  int
	height tech.TrackHeight
	vt     VT
}

// New builds the full synthetic library over the given technology: every
// kindSpec at every listed drive, in both track-heights and both VTs.
func New(t *tech.Tech) *Library {
	lib := &Library{Tech: t, byName: make(map[string]*Master), byKey: make(map[masterKey]*Master)}
	for _, spec := range kindSpecs {
		for _, drive := range spec.drives {
			for _, h := range []tech.TrackHeight{tech.Short6T, tech.Tall7p5T} {
				for _, vt := range []VT{RVT, LVT} {
					m := buildMaster(t, spec, drive, h, vt)
					lib.masters = append(lib.masters, m)
					lib.byName[m.Name] = m
					lib.byKey[masterKey{spec.kind, drive, h, vt}] = m
				}
			}
		}
	}
	sort.Slice(lib.masters, func(i, j int) bool { return lib.masters[i].Name < lib.masters[j].Name })
	return lib
}

// buildMaster derives one master from a kind spec. The 7.5T variant of a
// cell is ~30% stronger (lower drive resistance), presents ~25% more input
// capacitance and leaks ~60% more; LVT trades ~20% delay for ~3x leakage.
// These ratios reflect the qualitative 6T-vs-7.5T and RVT-vs-LVT trade-offs
// reported for ASAP7-class libraries.
func buildMaster(t *tech.Tech, spec kindSpec, drive int, h tech.TrackHeight, vt VT) *Master {
	sites := spec.baseSites
	for d := 1; d < drive; d *= 2 {
		sites += spec.growSites
	}
	res := spec.baseRes / float64(drive)
	delay := spec.baseDelay
	capIn := spec.baseCap * float64(drive)
	energy := spec.baseEnergy * float64(drive)
	leak := spec.baseLeak * float64(drive)
	if h == tech.Tall7p5T {
		res *= 0.70
		delay *= 0.88
		capIn *= 1.25
		energy *= 1.20
		leak *= 1.60
	}
	if vt == LVT {
		res *= 0.82
		delay *= 0.80
		leak *= 3.0
	}
	m := &Master{
		Name:           fmt.Sprintf("%s_X%d_%s_%s", spec.kind, drive, heightTag(h), vt),
		Kind:           spec.kind,
		Height:         h,
		VT:             vt,
		Drive:          drive,
		Sites:          sites,
		Width:          sites * t.SiteWidth,
		RowH:           t.RowHeight(h),
		IntrinsicDelay: delay,
		DriveRes:       res,
		InternalEnergy: energy,
		Leakage:        leak,
		Sequential:     spec.sequential,
	}
	m.Pins = buildPins(spec, m)
	return m
}

func heightTag(h tech.TrackHeight) string {
	if h == tech.Tall7p5T {
		return "75T"
	}
	return "6T"
}

// buildPins spreads input pins evenly across the cell width at 1/3 height
// and places the output pin near the right edge at 2/3 height, mimicking
// typical standard-cell pin access patterns.
func buildPins(spec kindSpec, m *Master) []PinDef {
	pins := make([]PinDef, 0, spec.inputs+1)
	names := inputPinNames(spec)
	for i := 0; i < spec.inputs; i++ {
		x := m.Width * int64(i+1) / int64(spec.inputs+1)
		pins = append(pins, PinDef{
			Name:   names[i],
			Dir:    Input,
			Offset: geom.Point{X: x, Y: m.RowH / 3},
			Cap:    inputCapFor(spec, m, i),
		})
	}
	pins = append(pins, PinDef{
		Name:   outputPinName(spec),
		Dir:    Output,
		Offset: geom.Point{X: m.Width - m.Width/8 - 1, Y: 2 * m.RowH / 3},
	})
	return pins
}

func inputPinNames(spec kindSpec) []string {
	if spec.kind == DFF {
		return []string{"D", "CK"}
	}
	base := []string{"A", "B", "C", "D1", "D2"}
	return base[:spec.inputs]
}

func outputPinName(spec kindSpec) string {
	if spec.kind == DFF {
		return "Q"
	}
	return "Y"
}

// inputCapFor returns the capacitance of a specific input pin. The DFF clock
// pin presents a smaller load than its data pin.
func inputCapFor(spec kindSpec, m *Master, i int) float64 {
	base := spec.baseCap * float64(m.Drive)
	if m.Height == tech.Tall7p5T {
		base *= 1.25
	}
	if spec.kind == DFF && i == 1 { // CK
		base *= 0.5
	}
	return base
}

// Master returns the master with the given name, or nil.
func (l *Library) Master(name string) *Master { return l.byName[name] }

// Masters returns all masters sorted by name. The returned slice must not be
// modified.
func (l *Library) Masters() []*Master { return l.masters }

// Variant returns the master implementing the same kind, drive and VT as m
// at the requested track-height; nil if not in the library.
func (l *Library) Variant(m *Master, h tech.TrackHeight) *Master {
	if m == nil {
		return nil
	}
	if m.Height == h {
		return m
	}
	return l.Find(m.Kind, m.Drive, h, m.VT)
}

// Find returns the master for an exact (kind, drive, height, vt) tuple, or
// nil when the library has no such cell.
func (l *Library) Find(k Kind, drive int, h tech.TrackHeight, vt VT) *Master {
	return l.byKey[masterKey{k, drive, h, vt}]
}

// Drives returns the drive strengths the library offers for k, ascending,
// or nil for an unknown kind. The returned slice must not be modified.
func Drives(k Kind) []int {
	if int(k) < len(kindSpecs) {
		return kindSpecs[k].drives
	}
	return nil
}
