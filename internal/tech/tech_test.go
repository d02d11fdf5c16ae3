package tech

import (
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	tc := Default()
	if err := tc.Validate(); err != nil {
		t.Fatalf("default tech invalid: %v", err)
	}
}

func TestTrackHeightString(t *testing.T) {
	if Short6T.String() != "6T" || Tall7p5T.String() != "7.5T" {
		t.Error("TrackHeight String wrong")
	}
	if TrackHeight(9).String() != "TrackHeight(9)" {
		t.Error("unknown TrackHeight String wrong")
	}
	if Short6T.Other() != Tall7p5T || Tall7p5T.Other() != Short6T {
		t.Error("Other wrong")
	}
}

func TestRowAndPairHeights(t *testing.T) {
	tc := Default()
	if tc.RowHeight(Short6T) != 216 || tc.RowHeight(Tall7p5T) != 270 {
		t.Fatalf("row heights %d/%d", tc.RowHeight(Short6T), tc.RowHeight(Tall7p5T))
	}
	if tc.PairHeight(Short6T) != 432 || tc.PairHeight(Tall7p5T) != 540 {
		t.Fatalf("pair heights %d/%d", tc.PairHeight(Short6T), tc.PairHeight(Tall7p5T))
	}
}

func TestMLEFPairHeightEndpointsAndMonotone(t *testing.T) {
	tc := Default()
	if got := tc.MLEFPairHeight(0); got != tc.PairHeight(Short6T) {
		t.Errorf("MLEFPairHeight(0) = %d, want %d", got, tc.PairHeight(Short6T))
	}
	if got := tc.MLEFPairHeight(1); got != tc.PairHeight(Tall7p5T) {
		t.Errorf("MLEFPairHeight(1) = %d, want %d", got, tc.PairHeight(Tall7p5T))
	}
	// Out-of-range inputs are clamped.
	if tc.MLEFPairHeight(-3) != tc.PairHeight(Short6T) || tc.MLEFPairHeight(7) != tc.PairHeight(Tall7p5T) {
		t.Error("MLEFPairHeight must clamp the minority fraction")
	}
	prev := int64(0)
	for f := 0.0; f <= 1.0; f += 0.05 {
		h := tc.MLEFPairHeight(f)
		if h < prev {
			t.Fatalf("MLEFPairHeight not monotone at %f: %d < %d", f, h, prev)
		}
		prev = h
	}
}

// Property: the mLEF height always lies between the two pair heights and on
// the manufacturing grid.
func TestMLEFPairHeightBoundsProperty(t *testing.T) {
	tc := Default()
	f := func(frac float64) bool {
		h := tc.MLEFPairHeight(frac)
		if h < tc.PairHeight(Short6T) || h > tc.PairHeight(Tall7p5T) {
			return false
		}
		return h%tc.ManufacturingGrid == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSitesFor(t *testing.T) {
	tc := Default()
	if got := tc.SitesFor(54); got != 1 {
		t.Errorf("SitesFor(54) = %d, want 1", got)
	}
	if got := tc.SitesFor(55); got != 2 {
		t.Errorf("SitesFor(55) = %d, want 2", got)
	}
	if got := tc.SitesFor(0); got != 0 {
		t.Errorf("SitesFor(0) = %d, want 0", got)
	}
}

func TestValidateRejectsBadTech(t *testing.T) {
	mods := []func(*Tech){
		func(c *Tech) { c.SiteWidth = 0 },
		func(c *Tech) { c.RowHeight6T = 0 },
		func(c *Tech) { c.RowHeight7p5T = c.RowHeight6T },
		func(c *Tech) { c.ManufacturingGrid = 0 },
		func(c *Tech) { c.GCellSize = 1 },
		func(c *Tech) { c.HTracksPerGCell = 0 },
		func(c *Tech) { c.WireCapPerDBU = 0 },
		func(c *Tech) { c.SupplyVoltage = -1 },
	}
	for i, mod := range mods {
		c := Default()
		mod(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}
