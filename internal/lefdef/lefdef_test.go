package lefdef

import (
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
