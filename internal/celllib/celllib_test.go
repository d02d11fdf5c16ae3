package celllib

import (
	"fmt"
	"slices"
	"testing"

	"mthplace/internal/tech"
)

func newLib(t *testing.T) *Library {
	t.Helper()
	return New(tech.Default())
}

func TestLibraryCompleteness(t *testing.T) {
	lib := newLib(t)
	// Every kind spec contributes drives × heights × vts masters.
	want := 0
	for _, s := range kindSpecs {
		want += len(s.drives) * 2 * 2
	}
	if got := len(lib.Masters()); got != want {
		t.Fatalf("library has %d masters, want %d", got, want)
	}
	for _, m := range lib.Masters() {
		if lib.Master(m.Name) != m {
			t.Errorf("lookup by name failed for %s", m.Name)
		}
	}
}

func TestMasterGeometry(t *testing.T) {
	lib := newLib(t)
	tc := lib.Tech
	for _, m := range lib.Masters() {
		if m.Width != m.Sites*tc.SiteWidth {
			t.Errorf("%s: width %d not sites*sitewidth", m.Name, m.Width)
		}
		if m.RowH != tc.RowHeight(m.Height) {
			t.Errorf("%s: row height %d mismatch", m.Name, m.RowH)
		}
		if m.Sites <= 0 {
			t.Errorf("%s: nonpositive sites", m.Name)
		}
		for _, p := range m.Pins {
			if p.Offset.X < 0 || p.Offset.X >= m.Width || p.Offset.Y < 0 || p.Offset.Y >= m.RowH {
				t.Errorf("%s pin %s offset %v outside cell %dx%d", m.Name, p.Name, p.Offset, m.Width, m.RowH)
			}
		}
	}
}

func TestMasterPinStructure(t *testing.T) {
	lib := newLib(t)
	for _, m := range lib.Masters() {
		out := m.OutputPin()
		if out == -1 {
			t.Fatalf("%s: no output pin", m.Name)
		}
		if out != len(m.Pins)-1 {
			t.Errorf("%s: output pin must be last", m.Name)
		}
		for i := 0; i < out; i++ {
			if m.Pins[i].Dir != Input {
				t.Errorf("%s: pin %d not input", m.Name, i)
			}
			if m.InputCap(i) <= 0 {
				t.Errorf("%s: input pin %d has nonpositive cap", m.Name, i)
			}
		}
		if m.InputCap(out) != 0 {
			t.Errorf("%s: output pin reports input cap", m.Name)
		}
		if m.InputCap(-1) != 0 || m.InputCap(len(m.Pins)) != 0 {
			t.Errorf("%s: out-of-range InputCap must be 0", m.Name)
		}
	}
}

func TestTrackHeightScaling(t *testing.T) {
	lib := newLib(t)
	short := lib.Find(NAND2, 2, tech.Short6T, RVT)
	tall := lib.Find(NAND2, 2, tech.Tall7p5T, RVT)
	if short == nil || tall == nil {
		t.Fatal("missing NAND2_X2 variants")
	}
	if !(tall.DriveRes < short.DriveRes) {
		t.Error("7.5T cell must have lower drive resistance (stronger)")
	}
	if !(tall.InputCap(0) > short.InputCap(0)) {
		t.Error("7.5T cell must present more input cap")
	}
	if !(tall.Leakage > short.Leakage) {
		t.Error("7.5T cell must leak more")
	}
	if tall.RowH <= short.RowH {
		t.Error("7.5T cell must be taller")
	}
	if tall.Width != short.Width {
		t.Error("track-height variants keep the same width in this library")
	}
}

func TestVTScaling(t *testing.T) {
	lib := newLib(t)
	rvt := lib.Find(INV, 4, tech.Short6T, RVT)
	lvt := lib.Find(INV, 4, tech.Short6T, LVT)
	if rvt == nil || lvt == nil {
		t.Fatal("missing INV_X4 variants")
	}
	if !(lvt.DriveRes < rvt.DriveRes && lvt.IntrinsicDelay < rvt.IntrinsicDelay) {
		t.Error("LVT must be faster than RVT")
	}
	if !(lvt.Leakage > rvt.Leakage) {
		t.Error("LVT must leak more than RVT")
	}
}

func TestDriveScaling(t *testing.T) {
	lib := newLib(t)
	x1 := lib.Find(INV, 1, tech.Short6T, RVT)
	x8 := lib.Find(INV, 8, tech.Short6T, RVT)
	if x1 == nil || x8 == nil {
		t.Fatal("missing INV drives")
	}
	if !(x8.DriveRes < x1.DriveRes) {
		t.Error("higher drive must have lower output resistance")
	}
	if !(x8.Width > x1.Width) {
		t.Error("higher drive must be wider")
	}
	if !(x8.InputCap(0) > x1.InputCap(0)) {
		t.Error("higher drive must present more input cap")
	}
}

func TestVariantRoundTrip(t *testing.T) {
	lib := newLib(t)
	for _, m := range lib.Masters() {
		v := lib.Variant(m, m.Height.Other())
		if v == nil {
			t.Fatalf("%s: missing other-height variant", m.Name)
		}
		if v.Kind != m.Kind || v.Drive != m.Drive || v.VT != m.VT {
			t.Errorf("%s: variant %s changed identity", m.Name, v.Name)
		}
		if back := lib.Variant(v, m.Height); back != m {
			t.Errorf("%s: variant round trip failed", m.Name)
		}
	}
	if lib.Variant(nil, tech.Short6T) != nil {
		t.Error("Variant(nil) must be nil")
	}
	// Same-height variant is identity.
	m := lib.Masters()[0]
	if lib.Variant(m, m.Height) != m {
		t.Error("same-height variant must be identity")
	}
}

func TestDFFSpecifics(t *testing.T) {
	lib := newLib(t)
	dff := lib.Find(DFF, 1, tech.Short6T, RVT)
	if dff == nil {
		t.Fatal("missing DFF_X1")
	}
	if !dff.Sequential {
		t.Error("DFF must be sequential")
	}
	if len(dff.Pins) != 3 || dff.OutputPin() != 2 {
		t.Fatalf("DFF has %d pins, output %d; want inputs D, CK then output Q", len(dff.Pins), dff.OutputPin())
	}
	if dff.Pins[0].Name != "D" || dff.Pins[1].Name != "CK" || dff.Pins[2].Name != "Q" {
		t.Errorf("DFF pin names wrong: %v", []string{dff.Pins[0].Name, dff.Pins[1].Name, dff.Pins[2].Name})
	}
	if !(dff.InputCap(1) < dff.InputCap(0)) {
		t.Error("DFF clock pin must be lighter than data pin")
	}
}

// TestFindMatchesMasterName checks the struct-keyed lookups against the
// master names: Find(kind, drive, height, vt) returns that very master,
// and Variant flips only the height. It also checks that Drives(k) is the
// kind spec's drive menu, and keeps the menu checks of the deleted Kinds:
// every kind has inputs and drives, and one kind is sequential.
func TestFindMatchesMasterName(t *testing.T) {
	lib := newLib(t)
	for _, m := range lib.Masters() {
		want := fmt.Sprintf("%s_X%d_%s_%s", m.Kind, m.Drive, heightTag(m.Height), m.VT)
		if m.Name != want {
			t.Fatalf("master %s, want name %s", m.Name, want)
		}
		if got := lib.Find(m.Kind, m.Drive, m.Height, m.VT); got != m {
			t.Errorf("Find(%s, %d, %v, %s) = %v, want %s", m.Kind, m.Drive, m.Height, m.VT, got, m.Name)
		}
		v := lib.Variant(m, m.Height.Other())
		if v == nil || v.Kind != m.Kind || v.Drive != m.Drive || v.VT != m.VT || v.Height == m.Height {
			t.Errorf("Variant(%s) = %v", m.Name, v)
		}
	}
	seenSeq := false
	for k := Kind(0); k < numKinds; k++ {
		var spec *kindSpec
		for i := range kindSpecs {
			if kindSpecs[i].kind == k {
				spec = &kindSpecs[i]
			}
		}
		if spec == nil {
			t.Fatalf("%s has no kind spec", k)
		}
		if d := Drives(k); !slices.Equal(d, spec.drives) {
			t.Errorf("Drives(%s) = %v, want %v", k, d, spec.drives)
		}
		if spec.inputs <= 0 || len(spec.drives) == 0 || !slices.IsSorted(spec.drives) {
			t.Errorf("%s: bad menu entry", k)
		}
		seenSeq = seenSeq || spec.sequential
	}
	if !seenSeq {
		t.Error("menu must contain a sequential kind")
	}
	if Drives(numKinds) != nil {
		t.Error("Drives of an unknown kind must be nil")
	}
}

func TestFindUnknownReturnsNil(t *testing.T) {
	lib := newLib(t)
	if lib.Find(FA, 8, tech.Short6T, RVT) != nil {
		t.Error("FA_X8 should not exist")
	}
	if lib.Master("nonsense") != nil {
		t.Error("unknown master must be nil")
	}
}
