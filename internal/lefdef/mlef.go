// Package lefdef writes designs out in a compact LEF/DEF subset, the
// hand-off to a P&R tool, and implements the modified-LEF (mLEF) transform
// from the paper.
//
// The mLEF technique ([4], [10], §III of the paper) remaps every mixed
// track-height cell onto a single uniform height while preserving its area,
// so that a conventional single-height P&R tool can produce the
// unconstrained initial placement. Reverting the transform restores the real
// mixed-height masters.
package lefdef

import (
	"fmt"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
)

// MLEF records an applied mLEF transform so it can be reverted.
type MLEF struct {
	// PairH is the uniform mLEF row-pair height; single mLEF rows are
	// PairH/2 tall.
	PairH int64
	// standins maps the true master to its uniform-height stand-in.
	standins map[*celllib.Master]*celllib.Master
}

// RowH returns the uniform single-row height of the transform.
func (m *MLEF) RowH() int64 { return m.PairH / 2 }

// Standin returns the uniform-height stand-in for a true master, creating it
// on first use. Stand-in width preserves the cell area (width × height),
// quantised up to the placement site grid; pin offsets are scaled into the
// new outline; timing and power parameters carry over unchanged (mLEF is a
// geometry-only trick).
func (m *MLEF) standin(d *netlist.Design, src *celllib.Master) *celllib.Master {
	if s, ok := m.standins[src]; ok {
		return s
	}
	rowH := m.RowH()
	area := src.Width * src.RowH
	sites := d.Tech.SitesFor((area + rowH - 1) / rowH)
	if sites < 1 {
		sites = 1
	}
	st := &celllib.Master{}
	*st = *src
	st.Name = src.Name + "_MLEF"
	st.Sites = sites
	st.Width = sites * d.Tech.SiteWidth
	st.RowH = rowH
	st.Pins = make([]celllib.PinDef, len(src.Pins))
	for i, p := range src.Pins {
		np := p
		np.Offset = geom.Point{
			X: scaleCoord(p.Offset.X, src.Width, st.Width),
			Y: scaleCoord(p.Offset.Y, src.RowH, st.RowH),
		}
		st.Pins[i] = np
	}
	m.standins[src] = st
	return st
}

func scaleCoord(v, from, to int64) int64 {
	if from <= 0 {
		return 0
	}
	out := v * to / from
	if out >= to {
		out = to - 1
	}
	if out < 0 {
		out = 0
	}
	return out
}

// ApplyMLEF converts the design to its uniform-height mLEF representation in
// place: every instance's Master becomes the area-preserving stand-in and
// Source remembers the true master. The uniform pair height follows the
// design's minority area ratio, per §III of the paper.
//
// Applying to a design already in mLEF form is an error.
func ApplyMLEF(d *netlist.Design) (*MLEF, error) {
	for _, in := range d.Insts {
		if in.Source != nil {
			return nil, fmt.Errorf("lefdef: design %s already in mLEF form", d.Name)
		}
	}
	m := &MLEF{
		PairH:    d.Tech.MLEFPairHeight(d.MinorityAreaFraction()),
		standins: make(map[*celllib.Master]*celllib.Master),
	}
	for _, in := range d.Insts {
		src := in.Master
		in.Source = src
		in.Master = m.standin(d, src)
	}
	return m, nil
}

// Revert restores the true mixed-height masters on a design previously
// transformed by ApplyMLEF. Instance positions are left untouched; callers
// re-legalize onto the mixed row stack afterwards.
func Revert(d *netlist.Design) error {
	for i, in := range d.Insts {
		if in.Source == nil {
			return fmt.Errorf("lefdef: instance %d (%s) is not in mLEF form", i, in.Name)
		}
		in.Master = in.Source
		in.Source = nil
	}
	return nil
}
