package netlist

import (
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/tech"
)

// buildMini wires: port A -> inv1 -> n1 -> nand2 (both inputs) -> n2 -> port Z.
func buildMini(t *testing.T) *Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	d := &Design{
		Name:     "mini",
		Tech:     tc,
		Lib:      lib,
		Die:      geom.NewRect(0, 0, 10000, 10000),
		ClockNet: NoNet,
	}
	inv := lib.Find(celllib.INV, 1, tech.Short6T, celllib.RVT)
	nand := lib.Find(celllib.NAND2, 1, tech.Tall7p5T, celllib.RVT)
	if inv == nil || nand == nil {
		t.Fatal("missing masters")
	}
	i1 := d.AddInstance("inv1", inv)
	i2 := d.AddInstance("nand2", nand)
	pa := d.AddPort("A", In, geom.Point{X: 0, Y: 5000})
	pz := d.AddPort("Z", Out, geom.Point{X: 10000, Y: 5000})

	nA := d.AddNet("A")
	n1 := d.AddNet("n1")
	n2 := d.AddNet("n2")

	d.ConnectPort(pa, nA)
	d.Connect(i1, 0, nA) // inv input
	d.Connect(i1, 1, n1) // inv output
	d.Connect(i2, 0, n1)
	d.Connect(i2, 1, n1)
	d.Connect(i2, 2, n2) // nand output
	d.ConnectPort(pz, n2)

	d.Insts[i1].Pos = geom.Point{X: 1000, Y: 1000}
	d.Insts[i2].Pos = geom.Point{X: 5000, Y: 3000}
	if err := d.Validate(); err != nil {
		t.Fatalf("mini design invalid: %v", err)
	}
	return d
}

func TestPinPos(t *testing.T) {
	d := buildMini(t)
	in := d.Insts[0]
	got := d.PinPos(PinRef{0, 0})
	want := in.Pos.Add(in.Master.Pins[0].Offset)
	if got != want {
		t.Errorf("PinPos = %v, want %v", got, want)
	}
	// Port position.
	if got := d.PinPos(PinRef{PortInst, 0}); got != (geom.Point{X: 0, Y: 5000}) {
		t.Errorf("port PinPos = %v", got)
	}
}

func TestInstanceRectAndHeights(t *testing.T) {
	d := buildMini(t)
	inv := d.Insts[0]
	r := inv.Rect()
	if r.W() != inv.Width() || r.H() != inv.Height() {
		t.Error("Rect dims mismatch")
	}
	if inv.TrueHeight() != tech.Short6T {
		t.Error("inv must be 6T")
	}
	if d.Insts[1].TrueHeight() != tech.Tall7p5T {
		t.Error("nand must be 7.5T")
	}
	// Simulate an mLEF stand-in: Source set; TrueHeight follows Source.
	src := inv.Master
	inv.Source = src
	inv.Master = d.Lib.Variant(src, tech.Tall7p5T)
	if inv.TrueHeight() != tech.Short6T || inv.TrueMaster() != src {
		t.Error("TrueHeight/TrueMaster must look through Source")
	}
}

func TestDriver(t *testing.T) {
	d := buildMini(t)
	// Net "A" (index 0) is driven by the input port.
	drv, ok := d.Driver(0)
	if !ok || !drv.IsPort() {
		t.Fatalf("net A driver = %v ok=%v", drv, ok)
	}
	// Net n1 is driven by inv output pin 1.
	drv, ok = d.Driver(1)
	if !ok || drv != (PinRef{0, 1}) {
		t.Fatalf("net n1 driver = %v ok=%v", drv, ok)
	}
	// An undriven net.
	n := d.AddNet("floating")
	if _, ok := d.Driver(n); ok {
		t.Error("floating net must have no driver")
	}
}

func TestHPWLAndDisplacement(t *testing.T) {
	d := buildMini(t)
	total := d.TotalHPWL()
	var manual int64
	for i := range d.Nets {
		manual += d.NetHPWL(int32(i))
	}
	if total != manual {
		t.Errorf("TotalHPWL %d != sum %d", total, manual)
	}
	ref := d.Positions()
	if d.Displacement(ref) != 0 {
		t.Error("zero displacement expected at snapshot")
	}
	d.Insts[0].Pos = d.Insts[0].Pos.Add(geom.Point{X: 30, Y: -40})
	if got := d.Displacement(ref); got != 70 {
		t.Errorf("Displacement = %d, want 70", got)
	}
}

func TestClockNetExcludedFromHPWL(t *testing.T) {
	d := buildMini(t)
	base := d.TotalHPWL()
	d.ClockNet = 1 // pretend n1 is the clock
	if got := d.TotalHPWL(); got != base-d.NetHPWL(1) {
		t.Errorf("clock net not excluded: %d", got)
	}
}

func TestMinorityQueries(t *testing.T) {
	d := buildMini(t)
	mins := d.MinorityInstances()
	if len(mins) != 1 || mins[0] != 1 {
		t.Fatalf("MinorityInstances = %v", mins)
	}
	if got := d.MinorityFraction(); got != 0.5 {
		t.Errorf("MinorityFraction = %f", got)
	}
	af := d.MinorityAreaFraction()
	if af <= 0 || af >= 1 {
		t.Errorf("MinorityAreaFraction = %f out of range", af)
	}
	empty := &Design{Tech: d.Tech, Lib: d.Lib}
	if empty.MinorityFraction() != 0 || empty.MinorityAreaFraction() != 0 {
		t.Error("empty design fractions must be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := buildMini(t)
	c := d.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	c.Insts[0].Pos = geom.Point{X: 777, Y: 888}
	c.Connect(0, 0, NoNet)
	if d.Insts[0].Pos == c.Insts[0].Pos {
		t.Error("clone position change leaked to original")
	}
	if d.Insts[0].PinNets[0] == NoNet {
		t.Error("clone connectivity change leaked to original")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
}

func TestConnectReplacesPrevious(t *testing.T) {
	d := buildMini(t)
	n3 := d.AddNet("n3")
	d.Connect(0, 1, n3) // move inv output from n1 to n3
	if err := d.Validate(); err != nil {
		t.Fatalf("after reconnect: %v", err)
	}
	if _, ok := d.Driver(1); ok {
		t.Error("n1 must have lost its driver")
	}
	if drv, ok := d.Driver(n3); !ok || drv != (PinRef{0, 1}) {
		t.Error("n3 must be driven by inv output")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildMini(t)
	d.Insts[0].PinNets[0] = 99
	if err := d.Validate(); err == nil {
		t.Error("expected out-of-range net error")
	}
	d = buildMini(t)
	// Break back reference: net lists a pin the instance does not point at.
	d.Nets[2].Pins = append(d.Nets[2].Pins, PinRef{0, 0})
	if err := d.Validate(); err == nil {
		t.Error("expected back reference error")
	}
	d = buildMini(t)
	d.ClockNet = 12
	if err := d.Validate(); err == nil {
		t.Error("expected clock net range error")
	}
}

func TestComputeStats(t *testing.T) {
	d := buildMini(t)
	s := d.ComputeStats()
	if s.Cells != 2 || s.Nets != 3 || s.Ports != 2 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.MinorityPct != 50 {
		t.Errorf("MinorityPct = %f", s.MinorityPct)
	}
	if s.Utilization <= 0 || s.Utilization >= 1 {
		t.Errorf("Utilization = %f", s.Utilization)
	}
	if s.TotalHPWL != d.TotalHPWL() {
		t.Error("stats HPWL mismatch")
	}
}
