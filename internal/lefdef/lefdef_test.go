package lefdef

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/netlist"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func smallDesign(t *testing.T) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = 0.01
	d, err := synth.Generate(tc, lib, synth.TableII()[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestApplyMLEFPreservesArea(t *testing.T) {
	d := smallDesign(t)
	origArea := make([]int64, len(d.Insts))
	for i, in := range d.Insts {
		origArea[i] = in.Master.Width * in.Master.RowH
	}
	m, err := ApplyMLEF(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.PairH%2 != 0 {
		t.Fatalf("mLEF pair height %d must be even", m.PairH)
	}
	rowH := m.RowH()
	site := d.Tech.SiteWidth
	for i, in := range d.Insts {
		if in.Source == nil {
			t.Fatalf("inst %d lost its source master", i)
		}
		if in.Master.RowH != rowH {
			t.Fatalf("inst %d stand-in height %d != mLEF row %d", i, in.Master.RowH, rowH)
		}
		if in.Master.Width%site != 0 {
			t.Fatalf("inst %d stand-in width %d off site grid", i, in.Master.Width)
		}
		newArea := in.Master.Width * in.Master.RowH
		// Area preserved up to one site-row quantum.
		if newArea < origArea[i] || newArea-origArea[i] >= site*rowH {
			t.Fatalf("inst %d area %d -> %d not preserved within a site", i, origArea[i], newArea)
		}
	}
}

func TestMLEFStandinsShared(t *testing.T) {
	d := smallDesign(t)
	if _, err := ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	seen := map[string]*celllib.Master{}
	for _, in := range d.Insts {
		if prev, ok := seen[in.Source.Name]; ok {
			if prev != in.Master {
				t.Fatalf("master %s has two distinct stand-ins", in.Source.Name)
			}
		}
		seen[in.Source.Name] = in.Master
	}
}

func TestMLEFPinOffsetsInside(t *testing.T) {
	d := smallDesign(t)
	if _, err := ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	for _, in := range d.Insts {
		for _, p := range in.Master.Pins {
			if p.Offset.X < 0 || p.Offset.X >= in.Master.Width ||
				p.Offset.Y < 0 || p.Offset.Y >= in.Master.RowH {
				t.Fatalf("stand-in %s pin %s offset %v outside %dx%d",
					in.Master.Name, p.Name, p.Offset, in.Master.Width, in.Master.RowH)
			}
		}
	}
}

func TestMLEFRevertRoundTrip(t *testing.T) {
	d := smallDesign(t)
	orig := make([]*celllib.Master, len(d.Insts))
	for i, in := range d.Insts {
		orig[i] = in.Master
	}
	if _, err := ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyMLEF(d); err == nil {
		t.Fatal("double ApplyMLEF must fail")
	}
	if err := Revert(d); err != nil {
		t.Fatal(err)
	}
	for i, in := range d.Insts {
		if in.Master != orig[i] || in.Source != nil {
			t.Fatalf("inst %d not reverted", i)
		}
	}
	if err := Revert(d); err == nil {
		t.Fatal("double Revert must fail")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLEFRoundTrip(t *testing.T) {
	tc := tech.Default()
	lib := celllib.New(tc)
	masters := lib.Masters()[:12]
	var buf bytes.Buffer
	if err := WriteLEF(&buf, tc, masters); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLEF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(masters) {
		t.Fatalf("round trip lost masters: %d -> %d", len(masters), len(back))
	}
	byName := map[string]*celllib.Master{}
	for _, m := range back {
		byName[m.Name] = m
	}
	for _, want := range masters {
		got := byName[want.Name]
		if got == nil {
			t.Fatalf("master %s missing after round trip", want.Name)
		}
		if got.Width != want.Width || got.RowH != want.RowH {
			t.Errorf("%s: size %dx%d != %dx%d", want.Name, got.Width, got.RowH, want.Width, want.RowH)
		}
		if got.Kind != want.Kind || got.Drive != want.Drive || got.Height != want.Height ||
			got.VT != want.VT || got.Sequential != want.Sequential {
			t.Errorf("%s: identity fields changed", want.Name)
		}
		if math.Abs(got.DriveRes-want.DriveRes) > 1e-12 || math.Abs(got.IntrinsicDelay-want.IntrinsicDelay) > 1e-12 {
			t.Errorf("%s: timing fields changed", want.Name)
		}
		if len(got.Pins) != len(want.Pins) {
			t.Fatalf("%s: pin count %d != %d", want.Name, len(got.Pins), len(want.Pins))
		}
		for i := range want.Pins {
			if got.Pins[i] != want.Pins[i] {
				t.Errorf("%s pin %d: %+v != %+v", want.Name, i, got.Pins[i], want.Pins[i])
			}
		}
	}
}

func TestReadLEFRejectsBadInput(t *testing.T) {
	if _, err := ReadLEF(strings.NewReader("MACRO FOO\nSIZE x BY 2 ;\nEND FOO\nEND LIBRARY\n")); err == nil {
		t.Error("bad SIZE must error")
	}
	if _, err := ReadLEF(strings.NewReader("MACRO FOO\nEND BAR\n")); err == nil {
		t.Error("mismatched END must error")
	}
}

func TestDEFRoundTrip(t *testing.T) {
	d := smallDesign(t)
	var buf bytes.Buffer
	if err := WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDEF(&buf, d.Tech, d.Lib, LibraryResolver(d.Lib))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != d.Name || back.Die != d.Die || back.ClockPeriodPs != d.ClockPeriodPs {
		t.Errorf("header fields changed: %s %v %f", back.Name, back.Die, back.ClockPeriodPs)
	}
	if len(back.Insts) != len(d.Insts) || len(back.Nets) != len(d.Nets) || len(back.Ports) != len(d.Ports) {
		t.Fatalf("element counts changed")
	}
	if back.ClockNet == netlist.NoNet {
		t.Fatal("clock net lost")
	}
	if back.Nets[back.ClockNet].Name != d.Nets[d.ClockNet].Name {
		t.Error("clock net identity changed")
	}
	for i, in := range d.Insts {
		bi := back.Insts[i]
		if bi.Name != in.Name || bi.Master != in.Master || bi.Pos != in.Pos {
			t.Fatalf("inst %d changed: %+v vs %+v", i, bi, in)
		}
	}
	if back.TotalHPWL() != d.TotalHPWL() {
		t.Errorf("HPWL changed: %d != %d", back.TotalHPWL(), d.TotalHPWL())
	}
}

func TestDEFRoundTripMLEF(t *testing.T) {
	d := smallDesign(t)
	if _, err := ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	byName := map[string]*celllib.Master{}
	for _, in := range d.Insts {
		byName[in.Master.Name] = in.Master
	}
	resolve := func(name string) *celllib.Master {
		if st, ok := byName[name]; ok {
			return st
		}
		return d.Lib.Master(name)
	}
	back, err := ReadDEF(&buf, d.Tech, d.Lib, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Insts) != len(d.Insts) {
		t.Fatal("instance count changed")
	}
	for i, in := range back.Insts {
		if in.Master != d.Insts[i].Master {
			t.Fatalf("inst %d stand-in not resolved", i)
		}
	}
}

func TestReadDEFUnknownMaster(t *testing.T) {
	d := smallDesign(t)
	var buf bytes.Buffer
	if err := WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	_, err := ReadDEF(&buf, d.Tech, d.Lib, func(string) *celllib.Master { return nil })
	if err == nil {
		t.Error("unknown master must error")
	}
}
