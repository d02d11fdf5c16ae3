package legalize

import (
	"fmt"
	"sort"
	"testing"

	"mthplace/internal/geom"
)

// FuzzLegalize decodes arbitrary bytes into a legalization request and
// checks that Abacus either reports infeasibility or returns a fully legal
// result: every cell placed on the site grid inside a row, no overlaps.
// Either way it must agree with abacusCopyOnMerge, the copy-on-merge
// implementation it replaced, error for error and position for position.
func FuzzLegalize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 20, 10, 5, 5, 30, 15, 60, 25, 200})
	f.Add([]byte{1, 12, 60, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const site = int64(10)
		br := 0
		next := func() byte {
			if br >= len(data) {
				return 0
			}
			v := data[br]
			br++
			return v
		}

		nRows := int(next())%5 + 1
		capSites := int64(next())%56 + 5
		rows := make([]Row, nRows)
		for i := range rows {
			rows[i] = Row{Y: int64(i) * 100, X0: int64(next()) % 7, X1: capSites*site + int64(next())%7}
		}
		nCells := int(next()) % 13
		cells := make([]Cell, nCells)
		for i := range cells {
			cells[i] = Cell{
				ID:      int32(i),
				TargetX: int64(next()) * 3,
				TargetY: int64(next()) * 2,
				W:       int64(next())%(8*site) + 1,
			}
		}

		res, err := Abacus(cells, rows, site)
		ref, refErr := abacusCopyOnMerge(cells, rows, site)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("error %v, copy-on-merge reference %v", err, refErr)
		}
		if err != nil {
			return // over-capacity inputs may legitimately be infeasible
		}
		for _, c := range cells {
			if res[c.ID] != ref[c.ID] {
				t.Fatalf("cell %d at %v, copy-on-merge reference %v", c.ID, res[c.ID], ref[c.ID])
			}
		}
		rowAt := map[int64]Row{}
		for _, r := range rows {
			rowAt[r.Y] = r
		}
		type span struct{ lo, hi int64 }
		occ := map[int64][]span{}
		for _, c := range cells {
			p, ok := res[c.ID]
			if !ok {
				t.Fatalf("cell %d missing from result", c.ID)
			}
			r, ok := rowAt[p.Y]
			if !ok {
				t.Fatalf("cell %d placed at y=%d, not a row", c.ID, p.Y)
			}
			if p.X%site != 0 {
				t.Fatalf("cell %d at x=%d off the site grid", c.ID, p.X)
			}
			w := (c.W + site - 1) / site * site // site-rounded footprint
			if p.X < geom.SnapUp(r.X0, site) || p.X+w > geom.SnapDown(r.X1, site) {
				t.Fatalf("cell %d footprint [%d,%d) outside row [%d,%d)", c.ID, p.X, p.X+w, r.X0, r.X1)
			}
			occ[p.Y] = append(occ[p.Y], span{p.X, p.X + w})
		}
		for y, spans := range occ {
			sort.Slice(spans, func(a, b int) bool { return spans[a].lo < spans[b].lo })
			for k := 1; k < len(spans); k++ {
				if spans[k].lo < spans[k-1].hi {
					t.Fatalf("overlap in row y=%d: [%d,%d) vs [%d,%d)", y,
						spans[k-1].lo, spans[k-1].hi, spans[k].lo, spans[k].hi)
				}
			}
		}
	})
}
