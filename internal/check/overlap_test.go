package check_test

import (
	"slices"
	"strings"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/geom"
	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// placed is one hand-placed cell of an overlap fixture.
type placed struct {
	m    *celllib.Master
	x, y int64
}

func fixture(tc *tech.Tech, cells []placed) *netlist.Design {
	d := &netlist.Design{Tech: tc, ClockNet: netlist.NoNet}
	for _, c := range cells {
		d.Insts = append(d.Insts, &netlist.Instance{Master: c.m, Pos: geom.Point{X: c.x, Y: c.y}})
	}
	return d
}

// assertReport compares a report's violations, rendered one per line, with
// the wanted lines in order.
func assertReport(t *testing.T, rep *check.Report, want []string) {
	t.Helper()
	got := make([]string, len(rep.Violations))
	for i, v := range rep.Violations {
		got[i] = v.String()
	}
	if !slices.Equal(got, want) {
		t.Errorf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestOverlapReportPinned pins the exact violation list, in order, of
// designs with overlaps in several rows: per-cell violations in instance
// order, then overlaps by ascending row y, then lo, then instance index,
// each cell compared with its predecessor in that order only. Off-row cells
// stay out of the overlap scan; off-grid and out-of-span cells stay in.
func TestOverlapReportPinned(t *testing.T) {
	tc := tech.Default()
	s2 := &celllib.Master{Name: "S2", Height: tech.Short6T, Width: 108, RowH: tc.RowHeight6T}
	s10 := &celllib.Master{Name: "S10", Height: tech.Short6T, Width: 540, RowH: tc.RowHeight6T}
	t3 := &celllib.Master{Name: "T3", Height: tech.Tall7p5T, Width: 162, RowH: tc.RowHeight7p5T}

	t.Run("mixed", func(t *testing.T) {
		die := geom.Rect{Hi: geom.Point{X: 2000, Y: 1404}}
		// Pairs 6T [0,432), 7.5T [432,972), 6T [972,1404).
		ms, err := rowgrid.Stack(die, []tech.TrackHeight{tech.Short6T, tech.Tall7p5T, tech.Short6T}, tc)
		if err != nil {
			t.Fatal(err)
		}
		d := fixture(tc, []placed{
			{s2, 270, 216},   // 0
			{t3, 0, 432},     // 1
			{s2, 1890, 1188}, // 2
			{s2, 216, 216},   // 3: overlaps 0 from the left
			{t3, 108, 432},   // 4: overlaps 1
			{s2, 270, 216},   // 5: same lo as 0, sorts after it
			{s2, 1944, 1188}, // 6: past the span and over 2
			{s2, 540, 216},   // 7: clean
			{s2, 0, 0},       // 8: clean, alone in its row
			{t3, 1001, 702},  // 9: off the site grid
			{t3, 1080, 702},  // 10: overlaps 9
			{s2, 270, 217},   // 11: off-row, kept out of the scan
			{s10, 0, 972},    // 12
			{s2, 108, 972},   // 13: inside 12
			{s2, 216, 972},   // 14: inside 12, but abuts its predecessor 13
			{t3, 1080, 432},  // 15: clean
			{s2, 1080, 432},  // 16: a 6T cell over 15 on a 7.5T row, kept out of the scan
		})
		assertReport(t, check.Placement(d, ms), []string{
			"[row-span] inst 6: footprint [1944,2052) outside row span [0,2000)",
			"[site-grid] inst 9: x=1001 not a multiple of site width 54",
			"[row-height] inst 11: y=217 is not a 6T row bottom",
			"[row-height] inst 16: y=432 is not a 6T row bottom",
			"[overlap] inst 0: overlaps inst 3 in row y=216 ([216,324) vs [270,378))",
			"[overlap] inst 5: overlaps inst 0 in row y=216 ([270,378) vs [270,378))",
			"[overlap] inst 4: overlaps inst 1 in row y=432 ([0,162) vs [108,270))",
			"[overlap] inst 10: overlaps inst 9 in row y=702 ([1001,1163) vs [1080,1242))",
			"[overlap] inst 13: overlaps inst 12 in row y=972 ([0,540) vs [108,216))",
			"[overlap] inst 6: overlaps inst 2 in row y=1188 ([1890,1998) vs [1944,2052))",
		})
	})

	t.Run("uniform", func(t *testing.T) {
		g := rowgrid.PairGrid{X1: 2000, PairH: 432, N: 2}
		d := fixture(tc, []placed{
			{s2, 540, 648},  // 0
			{s2, 486, 648},  // 1: overlaps 0 from the left
			{s2, 54, 0},     // 2
			{s2, 0, 0},      // 3: overlaps 2
			{s2, 0, 864},    // 4: above the grid, kept out of the scan
			{s10, 108, 216}, // 5
			{s2, 594, 216},  // 6: overlaps the tail of 5
			{s2, 0, 432},    // 7: clean
		})
		assertReport(t, check.PlacementUniform(d, g), []string{
			"[row-height] inst 4: y=864 is not a uniform row bottom",
			"[overlap] inst 2: overlaps inst 3 in row y=0 ([0,108) vs [54,162))",
			"[overlap] inst 6: overlaps inst 5 in row y=216 ([108,648) vs [594,702))",
			"[overlap] inst 0: overlaps inst 1 in row y=648 ([486,594) vs [540,648))",
		})
	})
}
