package synth

import (
	"math"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/netlist"
	"mthplace/internal/tech"
)

func TestTableIIHasAllRows(t *testing.T) {
	specs := TableII()
	if len(specs) != 26 {
		t.Fatalf("Table II has %d rows, want 26", len(specs))
	}
	circuits := map[string]int{}
	for _, s := range specs {
		circuits[s.Circuit]++
		if s.Cells <= 0 || s.Nets <= 0 || s.MinorityPct <= 0 || s.ClockPs <= 0 {
			t.Errorf("%s: bad spec %+v", s.Name(), s)
		}
		if s.Nets < s.Cells {
			t.Errorf("%s: nets %d < cells %d", s.Name(), s.Nets, s.Cells)
		}
	}
	if len(circuits) != 9 {
		t.Errorf("Table II covers %d circuits, want 9", len(circuits))
	}
}

func TestSpecNames(t *testing.T) {
	cases := map[string]string{
		"aes_cipher_top":       "aes_300",
		"ldpc_decoder_802_3an": "ldpc_300",
		"point_scalar_mult":    "point_200",
	}
	for _, s := range TableII() {
		if want, ok := cases[s.Circuit]; ok {
			if got := s.Name(); got == want {
				delete(cases, s.Circuit)
			} else if s.Name()[:4] == want[:4] && got != want {
				continue // other clock variant of same circuit
			}
		}
	}
	if len(cases) != 0 {
		t.Errorf("unmatched names: %v", cases)
	}
}

func TestLookup(t *testing.T) {
	for _, want := range TableII() {
		got, err := Lookup(want.Name())
		if err != nil || got != want {
			t.Errorf("Lookup(%q) = %+v, %v; want %+v", want.Name(), got, err, want)
		}
	}
	for _, bad := range []string{"not_a_testcase", "", "aes_cipher_top"} {
		if _, err := Lookup(bad); err == nil {
			t.Errorf("Lookup(%q) accepted an unknown name", bad)
		}
	}
}

func TestParameterSweepSpecs(t *testing.T) {
	ps := ParameterSweepSpecs()
	if len(ps) != 14 {
		t.Fatalf("parameter sweep set has %d cases, want 14", len(ps))
	}
	circuits := map[string]bool{}
	for _, s := range ps {
		circuits[s.Circuit] = true
	}
	if len(circuits) != 9 {
		t.Errorf("sweep set covers %d circuits, want all 9", len(circuits))
	}
}

func genSmall(t *testing.T, spec Spec, scale float64) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := DefaultOptions()
	opt.Scale = scale
	d, err := Generate(tc, lib, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGenerateMatchesSpecStatistics(t *testing.T) {
	spec := TableII()[0] // aes_300, 28.13% minority
	d := genSmall(t, spec, 0.1)
	nWant := int(math.Round(float64(spec.Cells) * 0.1))
	if got := len(d.Insts); got != nWant {
		t.Errorf("cells = %d, want %d", got, nWant)
	}
	frac := d.MinorityFraction() * 100
	if math.Abs(frac-spec.MinorityPct) > 5 {
		t.Errorf("minority pct = %.2f, want about %.2f", frac, spec.MinorityPct)
	}
	// Net surplus over cells tracks the spec's port count.
	if len(d.Nets) <= len(d.Insts) {
		t.Errorf("nets %d must exceed cells %d", len(d.Nets), len(d.Insts))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := TableII()[3]
	a := genSmall(t, spec, 0.05)
	b := genSmall(t, spec, 0.05)
	if len(a.Insts) != len(b.Insts) || len(a.Nets) != len(b.Nets) {
		t.Fatal("sizes differ between identical runs")
	}
	for i := range a.Insts {
		if a.Insts[i].Master.Name != b.Insts[i].Master.Name {
			t.Fatalf("inst %d master differs: %s vs %s", i, a.Insts[i].Master.Name, b.Insts[i].Master.Name)
		}
		for p := range a.Insts[i].PinNets {
			if a.Insts[i].PinNets[p] != b.Insts[i].PinNets[p] {
				t.Fatalf("inst %d pin %d net differs", i, p)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	spec := TableII()[3]
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := DefaultOptions()
	opt.Scale = 0.05
	a, _ := Generate(tc, lib, spec, opt)
	opt.Seed = 99
	b, _ := Generate(tc, lib, spec, opt)
	same := true
	for i := range a.Insts {
		if a.Insts[i].Master.Name != b.Insts[i].Master.Name {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical master sequences")
	}
}

func TestGenerateStructure(t *testing.T) {
	d := genSmall(t, TableII()[5], 0.02) // ldpc_300
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.ClockNet == netlist.NoNet {
		t.Fatal("design must have a clock net")
	}
	// Every DFF CK pin is on the clock net; every other input is driven.
	seqs := 0
	for i, in := range d.Insts {
		for p, pin := range in.Master.Pins {
			if pin.Dir != celllib.Input {
				continue
			}
			if in.PinNets[p] == netlist.NoNet {
				t.Fatalf("inst %d pin %d unconnected", i, p)
			}
			if in.Master.Sequential && pin.Name == "CK" {
				if in.PinNets[p] != d.ClockNet {
					t.Fatalf("DFF %d CK not on clock net", i)
				}
			}
		}
		if in.Master.Sequential {
			seqs++
		}
	}
	if seqs == 0 {
		t.Error("design must contain flip-flops")
	}
	// Every net except possibly floating outputs has a driver.
	for ni := range d.Nets {
		if _, ok := d.Driver(int32(ni)); !ok {
			t.Errorf("net %s undriven", d.Nets[ni].Name)
		}
	}
}

func TestGenerateNoCombinationalLoops(t *testing.T) {
	d := genSmall(t, TableII()[0], 0.03)
	// Combinational inputs of instance i must be driven by a port, a DFF, or
	// an instance with smaller index (generation wires in topological order).
	for i, in := range d.Insts {
		for p, pin := range in.Master.Pins {
			if pin.Dir != celllib.Input {
				continue
			}
			net := in.PinNets[p]
			if net == d.ClockNet {
				continue
			}
			drv, ok := d.Driver(net)
			if !ok || drv.IsPort() {
				continue
			}
			src := d.Insts[drv.Inst]
			if src.Master.Sequential {
				continue
			}
			if int(drv.Inst) >= i {
				t.Fatalf("forward combinational edge %d -> %d", drv.Inst, i)
			}
		}
	}
}

func TestGenerateDieSizing(t *testing.T) {
	d := genSmall(t, TableII()[0], 0.05)
	st := d.ComputeStats()
	if st.Utilization < 0.4 || st.Utilization > 0.7 {
		t.Errorf("utilization = %.3f, want near 0.6", st.Utilization)
	}
	pairH := d.Tech.MLEFPairHeight(d.MinorityAreaFraction())
	if d.Die.H()%pairH != 0 {
		t.Errorf("die height %d not a multiple of mLEF pair height %d", d.Die.H(), pairH)
	}
	ar := float64(d.Die.H()) / float64(d.Die.W())
	if ar < 0.7 || ar > 1.4 {
		t.Errorf("aspect ratio = %.2f, want near 1.0", ar)
	}
	// Ports sit on the die boundary.
	for _, p := range d.Ports {
		onX := p.Pos.X == d.Die.Lo.X || p.Pos.X == d.Die.Hi.X
		onY := p.Pos.Y == d.Die.Lo.Y || p.Pos.Y == d.Die.Hi.Y
		if !onX && !onY {
			t.Errorf("port %s at %v not on boundary %v", p.Name, p.Pos, d.Die)
		}
	}
}

func TestGenerateRejectsBadOptions(t *testing.T) {
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := DefaultOptions()
	opt.Scale = 0
	if _, err := Generate(tc, lib, TableII()[0], opt); err == nil {
		t.Error("zero scale must error")
	}
	opt = DefaultOptions()
	opt.Utilization = 1.5
	if _, err := Generate(tc, lib, TableII()[0], opt); err == nil {
		t.Error("bad utilization must error")
	}
}

func TestNetDegreeDistribution(t *testing.T) {
	d := genSmall(t, TableII()[8], 0.02) // jpeg_300
	deg := map[int]int{}
	total := 0
	for ni := range d.Nets {
		if int32(ni) == d.ClockNet {
			continue
		}
		n := len(d.Nets[ni].Pins)
		deg[n]++
		total++
	}
	small := deg[2] + deg[3] + deg[4]
	if float64(small)/float64(total) < 0.5 {
		t.Errorf("2-4 pin nets are only %d/%d; want majority", small, total)
	}
}
