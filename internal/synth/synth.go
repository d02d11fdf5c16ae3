// Package synth generates the synthetic gate-level netlists that stand in
// for the paper's 26 OpenCores testcases (Table II). Synopsys Design
// Compiler and the OpenCores RTL are not available in this environment, so
// the generator reproduces the *statistics* that matter to the row
// assignment and placement experiments: cell count, the 7.5T minority
// fraction (a function of timing pressure in the paper; an explicit knob
// here), a 2-3-pin-dominated net degree distribution with Rent-style
// locality, and a levelised sequential DAG so static timing has real
// launch/capture paths to evaluate.
//
// Generation is fully deterministic for a given spec and seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/tech"
)

// Spec describes one Table II testcase row.
type Spec struct {
	// Circuit is the OpenCores design name.
	Circuit string
	// ClockPs is the synthesis clock period in picoseconds.
	ClockPs float64
	// Cells is the paper-reported instance count.
	Cells int
	// MinorityPct is the paper-reported 7.5T percentage.
	MinorityPct float64
	// Nets is the paper-reported net count.
	Nets int
}

// Name returns the short testcase name used throughout the paper's tables,
// e.g. "aes_300".
func (s Spec) Name() string {
	short := map[string]string{
		"aes_cipher_top":       "aes",
		"ldpc_decoder_802_3an": "ldpc",
		"jpeg_encoder":         "jpeg",
		"fpu":                  "fpu",
		"point_scalar_mult":    "point",
		"des3":                 "des3",
		"vga_enh_top":          "vga",
		"swerv":                "swerv",
		"nova":                 "nova",
	}
	n, ok := short[s.Circuit]
	if !ok {
		n = s.Circuit
	}
	return fmt.Sprintf("%s_%d", n, int(s.ClockPs))
}

// ScaleForCells returns the Options.Scale that makes this spec generate
// approximately n instances. The generator scales the spec's cell count
// linearly, so scale = n / Cells; million-cell mode is
// ScaleForCells(1_000_000) on the largest Table II spec.
func (s Spec) ScaleForCells(n int) float64 {
	if n <= 0 || s.Cells <= 0 {
		return 1
	}
	return float64(n) / float64(s.Cells)
}

// TableII returns the 26 testcase specifications of Table II.
func TableII() []Spec {
	return []Spec{
		{"aes_cipher_top", 300, 14040, 28.13, 14302},
		{"aes_cipher_top", 320, 13792, 18.74, 14054},
		{"aes_cipher_top", 340, 13031, 13.94, 13293},
		{"aes_cipher_top", 360, 12799, 10.05, 13061},
		{"aes_cipher_top", 400, 12419, 5.27, 12681},
		{"ldpc_decoder_802_3an", 300, 43299, 23.79, 45350},
		{"ldpc_decoder_802_3an", 350, 42584, 8.61, 42584},
		{"ldpc_decoder_802_3an", 400, 43706, 3.62, 45757},
		{"jpeg_encoder", 300, 50136, 15.46, 50158},
		{"jpeg_encoder", 350, 49449, 10.70, 49471},
		{"jpeg_encoder", 400, 47329, 4.31, 48129},
		{"fpu", 4000, 37739, 17.50, 37809},
		{"fpu", 4500, 34945, 10.36, 35015},
		{"point_scalar_mult", 200, 55630, 7.92, 56172},
		{"point_scalar_mult", 250, 51556, 4.87, 52098},
		{"des3", 210, 57532, 24.44, 57766},
		{"des3", 220, 57851, 21.27, 58085},
		{"des3", 230, 57613, 15.44, 57847},
		{"des3", 250, 56653, 10.17, 56887},
		{"des3", 290, 55390, 4.95, 55624},
		{"vga_enh_top", 270, 73790, 8.27, 73879},
		{"vga_enh_top", 290, 73516, 3.80, 73605},
		{"swerv", 130, 94333, 9.07, 95111},
		{"swerv", 550, 89682, 4.67, 90460},
		{"nova", 300, 174267, 9.75, 174418},
		{"nova", 500, 155536, 5.59, 155687},
	}
}

// Lookup returns the Table II spec with the given name (Spec.Name, e.g.
// "aes_300").
func Lookup(name string) (Spec, error) {
	for _, s := range TableII() {
		if s.Name() == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("synth: unknown testcase %q", name)
}

// ParameterSweepSpecs returns the 14 representative testcases the paper uses
// for the Fig. 4 parameter sweeps: all nine circuits covered with a spread
// of 7.5T percentages.
func ParameterSweepSpecs() []Spec {
	want := map[string]bool{
		"aes_300": true, "aes_360": true, "ldpc_300": true, "ldpc_400": true,
		"jpeg_300": true, "jpeg_400": true, "fpu_4000": true, "fpu_4500": true,
		"point_200": true, "des3_210": true, "des3_290": true, "vga_270": true,
		"swerv_130": true, "nova_500": true,
	}
	var out []Spec
	for _, s := range TableII() {
		if want[s.Name()] {
			out = append(out, s)
		}
	}
	return out
}

// Options control generation.
type Options struct {
	// Scale multiplies the cell count of the spec; 1.0 reproduces the
	// paper-size design, smaller values produce proportionally smaller
	// designs with identical structure (useful for fast experimentation —
	// the experiment harness records the scale it ran at).
	Scale float64
	// Seed selects the deterministic random stream; the circuit name and
	// clock are mixed in so every testcase differs.
	Seed int64
	// Utilization is the placement utilization used to size the die
	// (paper: 60%).
	Utilization float64
}

const (
	// seqFrac is the flip-flop fraction of all instances.
	seqFrac = 0.16
	// windowFrac sizes the locality window for input selection as a
	// fraction of the instance count.
	windowFrac = 0.04
	// longRangeProb is the probability that an input escapes the locality
	// window (Rent-style global wiring).
	longRangeProb = 0.08
	// aspectRatio is die height/width (paper: 1.0).
	aspectRatio = 1.0
)

// DefaultOptions mirrors the paper's experimental setup.
func DefaultOptions() Options {
	return Options{
		Scale:       1.0,
		Seed:        1,
		Utilization: 0.60,
	}
}

// combinational kind mix (weights) for the majority of instances.
var combMix = []struct {
	kind   celllib.Kind
	weight int
}{
	{celllib.INV, 14},
	{celllib.BUF, 8},
	{celllib.NAND2, 18},
	{celllib.NOR2, 11},
	{celllib.AND2, 9},
	{celllib.OR2, 8},
	{celllib.NAND3, 6},
	{celllib.NOR3, 5},
	{celllib.AOI21, 6},
	{celllib.OAI21, 6},
	{celllib.XOR2, 4},
	{celllib.XNOR2, 3},
	{celllib.MUX2, 5},
	{celllib.FA, 3},
}

// Generate builds the design for one spec.
//
// The returned design has no placement (all instances at the origin) and no
// die-dependent structures beyond the die outline itself; run the mLEF
// transform and the global placer to obtain the unconstrained initial
// placement the paper starts from.
func Generate(t *tech.Tech, lib *celllib.Library, spec Spec, opt Options) (*netlist.Design, error) {
	if opt.Scale <= 0 {
		return nil, fmt.Errorf("synth: scale %f must be positive", opt.Scale)
	}
	if opt.Utilization <= 0 || opt.Utilization >= 1 {
		return nil, fmt.Errorf("synth: utilization %f out of (0,1)", opt.Utilization)
	}
	nCells := int(math.Round(float64(spec.Cells) * opt.Scale))
	if nCells < 16 {
		nCells = 16
	}
	rng := rand.New(rand.NewSource(opt.Seed ^ hashString(spec.Circuit) ^ int64(spec.ClockPs)*7919))

	d := &netlist.Design{
		Name:          spec.Name(),
		Tech:          t,
		Lib:           lib,
		ClockPeriodPs: spec.ClockPs,
		ClockNet:      netlist.NoNet,
	}

	masters := chooseMasters(lib, rng, nCells, spec.MinorityPct/100, seqFrac)
	for i, m := range masters {
		d.AddInstance(fmt.Sprintf("u%d", i), m)
	}

	sizeDie(d, opt)
	addPorts(d, spec, opt, rng)
	wire(d, rng, opt)

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated design invalid: %w", err)
	}
	return d, nil
}

func hashString(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// chooseMasters picks a master per instance. The minority fraction of
// instances is mapped to 7.5T high-drive cells — the paper's synthesis uses
// tighter clocks to force more high-drive (hence 7.5T) instances. Because
// high-drive cells concentrate along critical timing cones, minority status
// is assigned in contiguous index blocks rather than i.i.d.: instance-index
// locality translates (through the locality-windowed wiring) into spatial
// locality after placement, reproducing the clumped minority distributions
// that make capacity-aware row assignment matter. LVT is used for a slice
// of the cells (both VTs appear in the paper's setup).
func chooseMasters(lib *celllib.Library, rng *rand.Rand, n int, minorityFrac, seqFrac float64) []*celllib.Master {
	total := 0
	for _, c := range combMix {
		total += c.weight
	}
	minority := minorityBlocks(rng, n, minorityFrac)
	out := make([]*celllib.Master, n)
	for i := range out {
		height := tech.Short6T
		if minority[i] {
			height = tech.Tall7p5T
		}
		vt := celllib.RVT
		if rng.Float64() < 0.25 {
			vt = celllib.LVT
		}
		if rng.Float64() < seqFrac {
			drive := 1
			if height == tech.Tall7p5T || rng.Float64() < 0.3 {
				drive = 2
			}
			out[i] = lib.Find(celllib.DFF, drive, height, vt)
			continue
		}
		k := pickKind(rng, total)
		out[i] = lib.Find(k.kind, pickDrive(rng, k.kind, height), height, vt)
	}
	return out
}

// minorityBlocks marks round(frac·n) instances as minority in a handful of
// large contiguous index runs — the critical timing cones where synthesis
// concentrates high-drive cells. Together with the tighter intra-cone
// wiring (see wire), the cones become spatial hotspots whose local minority
// density far exceeds the global fraction; those hotspots are what make
// capacity-aware row assignment matter.
func minorityBlocks(rng *rand.Rand, n int, frac float64) []bool {
	out := make([]bool, n)
	target := int(math.Round(frac * float64(n)))
	if target <= 0 {
		return out
	}
	numBlocks := 2 + rng.Intn(3)
	blockLen := (target + numBlocks - 1) / numBlocks
	count := 0
	for count < target {
		length := blockLen/2 + rng.Intn(blockLen+1)
		start := rng.Intn(n)
		for j := start; j < n && length > 0 && count < target; j++ {
			if !out[j] {
				out[j] = true
				count++
				length--
			}
		}
	}
	return out
}

func pickKind(rng *rand.Rand, total int) struct {
	kind   celllib.Kind
	weight int
} {
	v := rng.Intn(total)
	for _, c := range combMix {
		if v < c.weight {
			return c
		}
		v -= c.weight
	}
	return combMix[0]
}

// pickDrive selects a drive strength: minority (7.5T) cells skew to strong
// drives, majority cells to weak ones.
func pickDrive(rng *rand.Rand, k celllib.Kind, h tech.TrackHeight) int {
	drives := celllib.Drives(k)
	if len(drives) == 1 {
		return drives[0]
	}
	r := rng.Float64()
	if h == tech.Tall7p5T {
		// Prefer the strongest drives.
		if r < 0.55 {
			return drives[len(drives)-1]
		}
		if r < 0.85 && len(drives) >= 2 {
			return drives[len(drives)-2]
		}
		return drives[rng.Intn(len(drives))]
	}
	if r < 0.60 {
		return drives[0]
	}
	if r < 0.90 && len(drives) >= 2 {
		return drives[1]
	}
	return drives[rng.Intn(len(drives))]
}

// sizeDie computes the die so that the mLEF placement at the requested
// utilization fits an integral number of mLEF row pairs, and so that any
// feasible mixed restack also fits (guaranteed later by clamping N_minR via
// rowgrid.MaxMinorityPairs).
func sizeDie(d *netlist.Design, opt Options) {
	var area float64
	for _, in := range d.Insts {
		area += float64(in.Master.Width) * float64(in.Master.RowH)
	}
	dieArea := area / opt.Utilization
	pairH := d.Tech.MLEFPairHeight(d.MinorityAreaFraction())
	// Height from aspect ratio, snapped to whole pairs (at least 4).
	h := math.Sqrt(dieArea * aspectRatio)
	nPairs := int(math.Round(h / float64(pairH)))
	if nPairs < 4 {
		nPairs = 4
	}
	dieH := int64(nPairs) * pairH
	dieW := geom.SnapUp(int64(math.Ceil(dieArea/float64(dieH))), d.Tech.SiteWidth)
	d.Die = geom.NewRect(0, 0, dieW, dieH)
}

// addPorts creates primary IO on the die boundary: enough input ports that
// the net count matches the spec's cells-to-nets surplus, a similar number
// of output ports, and one clock port.
func addPorts(d *netlist.Design, spec Spec, opt Options, rng *rand.Rand) {
	surplus := int(math.Round(float64(spec.Nets-spec.Cells) * opt.Scale))
	nIn := surplus - 1 // clock port contributes one net
	if nIn < 4 {
		nIn = 4
	}
	nOut := nIn
	perim := func(i, n int) geom.Point {
		// Distribute along the four die edges.
		t := float64(i) / float64(n)
		w, h := float64(d.Die.W()), float64(d.Die.H())
		c := t * 2 * (w + h)
		switch {
		case c < w:
			return geom.Point{X: d.Die.Lo.X + int64(c), Y: d.Die.Lo.Y}
		case c < w+h:
			return geom.Point{X: d.Die.Hi.X, Y: d.Die.Lo.Y + int64(c-w)}
		case c < 2*w+h:
			return geom.Point{X: d.Die.Hi.X - int64(c-w-h), Y: d.Die.Hi.Y}
		default:
			return geom.Point{X: d.Die.Lo.X, Y: d.Die.Hi.Y - int64(c-2*w-h)}
		}
	}
	total := nIn + nOut + 1
	k := 0
	for i := 0; i < nIn; i++ {
		d.AddPort(fmt.Sprintf("in%d", i), netlist.In, perim(k, total))
		k++
	}
	for i := 0; i < nOut; i++ {
		d.AddPort(fmt.Sprintf("out%d", i), netlist.Out, perim(k, total))
		k++
	}
	d.AddPort("clk", netlist.In, perim(k, total))
}

// wire builds the netlist connectivity. Instances are wired in index order
// (which is the topological order for combinational cells); each cell output
// creates one net; inputs connect to nearby earlier outputs or PI nets with
// occasional long-range escapes.
func wire(d *netlist.Design, rng *rand.Rand, opt Options) {
	n := len(d.Insts)
	window := int(float64(n) * windowFrac)
	if window < 8 {
		window = 8
	}

	// Input-port nets.
	piNets := make([]int32, 0)
	var clkPort int32 = -1
	for pi, p := range d.Ports {
		if p.Dir != netlist.In {
			continue
		}
		if p.Name == "clk" {
			clkPort = int32(pi)
			continue
		}
		net := d.AddNet("pi_" + p.Name)
		d.ConnectPort(int32(pi), net)
		piNets = append(piNets, net)
	}
	clkNet := d.AddNet("clk")
	d.ConnectPort(clkPort, clkNet)
	d.ClockNet = clkNet

	// Output net per instance.
	outNets := make([]int32, n)
	for i, in := range d.Insts {
		net := d.AddNet(fmt.Sprintf("n_%s", in.Name))
		d.Connect(int32(i), int32(in.Master.OutputPin()), net)
		outNets[i] = net
	}

	// Minority (7.5T) cells sit on critical cones and wire tightly within
	// them, so the placer clumps each cone into a spatial hotspot.
	coneWindow := window / 6
	if coneWindow < 8 {
		coneWindow = 8
	}

	// pickDriver chooses a source net for an input of instance i.
	pickDriver := func(i int) int32 {
		if i == 0 || rng.Float64() < float64(len(piNets))/float64(len(piNets)+i) {
			// Early cells and a decaying fraction of later ones read PIs.
			if len(piNets) > 0 {
				return piNets[rng.Intn(len(piNets))]
			}
		}
		w := window
		longRange := longRangeProb
		if d.Insts[i].Master.Height == tech.Tall7p5T {
			w = coneWindow
			longRange = longRangeProb / 4
		}
		lo := i - w
		if rng.Float64() < longRange || lo < 0 {
			lo = 0
		}
		if i == 0 {
			return piNets[rng.Intn(len(piNets))]
		}
		return outNets[lo+rng.Intn(i-lo)]
	}

	for i, in := range d.Insts {
		m := in.Master
		for p := 0; p < len(m.Pins); p++ {
			if m.Pins[p].Dir != celllib.Input {
				continue
			}
			if m.Sequential && m.Pins[p].Name == "CK" {
				d.Connect(int32(i), int32(p), clkNet)
				continue
			}
			d.Connect(int32(i), int32(p), pickDriver(i))
		}
	}

	// Output ports observe late high-level nets.
	for pi, p := range d.Ports {
		if p.Dir != netlist.Out {
			continue
		}
		span := n / 10
		if span < 1 {
			span = 1
		}
		src := outNets[n-1-rng.Intn(span)]
		d.ConnectPort(int32(pi), src)
	}
}
