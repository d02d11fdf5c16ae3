// Package tech models the synthetic sub-5nm technology node used by the
// reproduction. It stands in for the ASAP7 predictive PDK referenced in the
// paper: two standard-cell track-heights (short 6T and tall 7.5T), a common
// placement site width, N-well sharing rules that pair rows of equal height,
// and the interconnect electrical constants consumed by the router, timing
// and power models.
//
// All geometry is in integer database units (DBU); 1 DBU = 1 nm.
package tech

import (
	"fmt"

	"mthplace/internal/geom"
)

// TrackHeight identifies one of the two standard-cell heights in the mixed
// track-height library.
type TrackHeight uint8

const (
	// Short6T is the majority 6-track cell height.
	Short6T TrackHeight = iota
	// Tall7p5T is the minority 7.5-track cell height.
	Tall7p5T
)

// String implements fmt.Stringer.
func (t TrackHeight) String() string {
	switch t {
	case Short6T:
		return "6T"
	case Tall7p5T:
		return "7.5T"
	default:
		return fmt.Sprintf("TrackHeight(%d)", uint8(t))
	}
}

// Other returns the opposite track-height.
func (t TrackHeight) Other() TrackHeight {
	if t == Short6T {
		return Tall7p5T
	}
	return Short6T
}

// Tech collects the technology constants of the synthetic node.
type Tech struct {
	// SiteWidth is the horizontal placement site pitch (one CPP).
	SiteWidth int64
	// RowHeight6T and RowHeight7p5T are single-row heights of the two
	// track-heights (6 and 7.5 M2 tracks respectively).
	RowHeight6T   int64
	RowHeight7p5T int64
	// ManufacturingGrid is the grid all derived geometry (such as the mLEF
	// cell height) must snap to.
	ManufacturingGrid int64
	// GCellSize is the edge length of one global-routing cell.
	GCellSize int64
	// HTracksPerGCell / VTracksPerGCell are routing capacities per gcell
	// edge in the horizontal / vertical direction.
	HTracksPerGCell int
	VTracksPerGCell int

	// WireCapPerDBU is wire capacitance in fF per DBU of routed length.
	WireCapPerDBU float64
	// WireResPerDBU is wire resistance in kOhm per DBU of routed length.
	// With capacitance in fF and resistance in kOhm, an RC product is
	// directly in picoseconds.
	WireResPerDBU float64
	// SupplyVoltage in volts (typical corner).
	SupplyVoltage float64
}

// Default returns the synthetic ASAP7-like node. The numbers mirror the
// published ASAP7 geometry (54 nm CPP, 36 nm M2 pitch giving 216 nm 6T and
// 270 nm 7.5T rows) with representative 7 nm-class interconnect parasitics.
func Default() *Tech {
	return &Tech{
		SiteWidth:         54,
		RowHeight6T:       216,
		RowHeight7p5T:     270,
		ManufacturingGrid: 1,
		GCellSize:         1080, // 20 sites
		HTracksPerGCell:   12,
		VTracksPerGCell:   12,
		WireCapPerDBU:     0.00020,   // 0.20 fF/um
		WireResPerDBU:     0.0000025, // 2.5 Ohm/um = 2.5e-6 kOhm/nm
		SupplyVoltage:     0.70,
	}
}

// RowHeight returns the single-row height for a track-height.
func (t *Tech) RowHeight(h TrackHeight) int64 {
	if h == Tall7p5T {
		return t.RowHeight7p5T
	}
	return t.RowHeight6T
}

// PairHeight returns the height of an N-well-sharing row pair. The paper's
// "row" in the row assignment problem always denotes such a pair.
func (t *Tech) PairHeight(h TrackHeight) int64 {
	return 2 * t.RowHeight(h)
}

// MLEFPairHeight computes the uniform row-pair height used by the mLEF
// transform. Following [10] and Section III of the paper, the mLEF height is
// the cell-area-ratio weighted average of the two pair heights, snapped up to
// the manufacturing grid so the die always accommodates the mixed restack.
// minorityFrac is the fraction of total cell area contributed by 7.5T cells,
// clamped to [0,1].
func (t *Tech) MLEFPairHeight(minorityFrac float64) int64 {
	if minorityFrac < 0 {
		minorityFrac = 0
	}
	if minorityFrac > 1 {
		minorityFrac = 1
	}
	tall := float64(t.PairHeight(Tall7p5T))
	short := float64(t.PairHeight(Short6T))
	avg := minorityFrac*tall + (1-minorityFrac)*short
	// Snap up to an even multiple of the manufacturing grid so the pair
	// splits into two equal single rows on-grid.
	grid := 2 * t.ManufacturingGrid
	snapped := geom.SnapUp(int64(avg+0.5), grid)
	if snapped < t.PairHeight(Short6T) {
		snapped = geom.SnapUp(t.PairHeight(Short6T), grid)
	}
	if snapped > t.PairHeight(Tall7p5T) {
		snapped = geom.SnapDown(t.PairHeight(Tall7p5T), grid)
	}
	return snapped
}

// SitesFor returns the number of sites needed to hold width w.
func (t *Tech) SitesFor(w int64) int64 {
	return geom.SnapUp(w, t.SiteWidth) / t.SiteWidth
}

// Validate checks internal consistency of the technology description.
func (t *Tech) Validate() error {
	switch {
	case t.SiteWidth <= 0:
		return fmt.Errorf("tech: site width %d must be positive", t.SiteWidth)
	case t.RowHeight6T <= 0 || t.RowHeight7p5T <= 0:
		return fmt.Errorf("tech: row heights %d/%d must be positive", t.RowHeight6T, t.RowHeight7p5T)
	case t.RowHeight7p5T <= t.RowHeight6T:
		return fmt.Errorf("tech: 7.5T height %d must exceed 6T height %d", t.RowHeight7p5T, t.RowHeight6T)
	case t.ManufacturingGrid <= 0:
		return fmt.Errorf("tech: manufacturing grid %d must be positive", t.ManufacturingGrid)
	case t.GCellSize < t.SiteWidth:
		return fmt.Errorf("tech: gcell size %d smaller than site width %d", t.GCellSize, t.SiteWidth)
	case t.HTracksPerGCell <= 0 || t.VTracksPerGCell <= 0:
		return fmt.Errorf("tech: gcell capacities must be positive")
	case t.WireCapPerDBU <= 0 || t.WireResPerDBU <= 0:
		return fmt.Errorf("tech: wire parasitics must be positive")
	case t.SupplyVoltage <= 0:
		return fmt.Errorf("tech: supply voltage must be positive")
	}
	return nil
}
