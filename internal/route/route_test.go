package route

import (
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func placedDesign(t testing.TB, scale float64) *netlist.Design {
	return placedSpec(t, synth.TableII()[0], scale)
}

// placedSpec synthesizes the testcase at the given scale and places it on
// the uniform row grid (global placement + legalization).
func placedSpec(t testing.TB, spec synth.Spec, scale float64) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = scale
	d, err := synth.Generate(tc, lib, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lefdef.ApplyMLEF(d)
	if err != nil {
		t.Fatal(err)
	}
	placer.Global(d, placer.Options{OuterIters: 4, SolveSweeps: 6})
	g := rowgrid.Uniform(d.Die, m.PairH)
	if err := legalize.Uniform(d, g); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSpanningTree(t *testing.T) {
	pts := [][2]int{{0, 0}, {10, 0}, {0, 10}, {10, 10}}
	edges := spanningTree(pts)
	if len(edges) != 3 {
		t.Fatalf("tree edges = %d, want 3", len(edges))
	}
	// Connectivity check via union-find.
	parent := []int{0, 1, 2, 3}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, e := range edges {
		parent[find(e[0])] = find(e[1])
	}
	for i := 1; i < 4; i++ {
		if find(i) != find(0) {
			t.Fatal("tree not connected")
		}
	}
	if spanningTree(pts[:1]) != nil {
		t.Error("single point has no edges")
	}
}

func TestEdgeCostMonotone(t *testing.T) {
	prev := 0.0
	for u := int32(0); u < 30; u++ {
		c := edgeCost(u, 12, 4)
		if c < prev {
			t.Fatalf("edge cost not monotone at u=%d", u)
		}
		prev = c
	}
	if edgeCost(0, 0, 4) < 1e8 {
		t.Error("zero-capacity edge must be prohibitive")
	}
}

func TestRouteBasics(t *testing.T) {
	d := placedDesign(t, 0.02)
	res, err := Route(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WirelengthDBU <= 0 {
		t.Fatal("no wirelength routed")
	}
	if res.GridW < 2 || res.GridH < 2 {
		t.Fatalf("grid %dx%d too small", res.GridW, res.GridH)
	}
	if len(res.NetLength) != len(d.Nets) {
		t.Fatal("net length vector size wrong")
	}
	var sum int64
	for _, l := range res.NetLength {
		if l < 0 {
			t.Fatal("negative net length")
		}
		sum += l
	}
	if sum != res.WirelengthDBU {
		t.Errorf("net lengths sum %d != total %d", sum, res.WirelengthDBU)
	}
}

func TestRoutedLengthAtLeastGridHPWL(t *testing.T) {
	d := placedDesign(t, 0.02)
	res, err := Route(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Per net, routed length >= gcell-quantised HPWL (paths cannot beat
	// Manhattan distance), for 2-pin nets.
	gs := d.Tech.GCellSize
	for ni := range d.Nets {
		if len(d.Nets[ni].Pins) != 2 {
			continue
		}
		a := d.PinPos(d.Nets[ni].Pins[0])
		b := d.PinPos(d.Nets[ni].Pins[1])
		ax, ay := (a.X-d.Die.Lo.X)/gs, (a.Y-d.Die.Lo.Y)/gs
		bx, by := (b.X-d.Die.Lo.X)/gs, (b.Y-d.Die.Lo.Y)/gs
		manh := (abs64(ax-bx) + abs64(ay-by)) * gs
		if res.NetLength[ni] < manh {
			t.Fatalf("net %d routed %d < grid manhattan %d", ni, res.NetLength[ni], manh)
		}
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestRouteDeterministic(t *testing.T) {
	d := placedDesign(t, 0.015)
	a, err := Route(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.WirelengthDBU != b.WirelengthDBU || a.Overflow != b.Overflow {
		t.Error("routing not deterministic")
	}
}

func TestRouteCongestionRelief(t *testing.T) {
	// A congested design: shrink gcell capacity drastically and check that
	// rip-up passes reduce (or at least do not increase) overflow.
	d := placedDesign(t, 0.02)
	d.Tech.HTracksPerGCell = 2
	d.Tech.VTracksPerGCell = 2
	noRRR, err := Route(d, Options{RipupPasses: 1, CongestionPenalty: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	withRRR, err := Route(d, Options{RipupPasses: 4, CongestionPenalty: 8})
	if err != nil {
		t.Fatal(err)
	}
	if withRRR.Overflow > noRRR.Overflow {
		t.Errorf("rip-up increased overflow: %d -> %d", noRRR.Overflow, withRRR.Overflow)
	}
	// Congestion-aware routing costs extra wirelength.
	if withRRR.Overflow < noRRR.Overflow && withRRR.WirelengthDBU < noRRR.WirelengthDBU {
		t.Logf("note: congestion relief also shortened WL (%d -> %d)", noRRR.WirelengthDBU, withRRR.WirelengthDBU)
	}
}

func TestMazeFindsDetour(t *testing.T) {
	g := &grid{w: 5, h: 5, size: 100, hCap: 1, vCap: 1}
	g.hUse = make([]int32, 25)
	g.vUse = make([]int32, 25)
	// Block the straight horizontal corridor at y=2.
	for x := 0; x < 4; x++ {
		g.hUse[2*5+x] = 5
	}
	s := &segment{x1: 0, y1: 2, x2: 4, y2: 2}
	path := new(astar).maze(g, s, Options{}.withDefaults())
	if path == nil {
		t.Fatal("maze found no path")
	}
	if len(path) <= 4 {
		t.Errorf("maze path length %d should detour around blocked corridor", len(path))
	}
}

func TestRouteBadTrackCapacity(t *testing.T) {
	d := placedDesign(t, 0.02)
	for _, tracks := range [][2]int{{0, 12}, {12, 0}, {-1, 12}} {
		d.Tech.HTracksPerGCell, d.Tech.VTracksPerGCell = tracks[0], tracks[1]
		if _, err := Route(d, Options{}); err == nil || err.Error() != "route: bad track capacity" {
			t.Errorf("tracks %v: err = %v, want route: bad track capacity", tracks, err)
		}
	}
}

// BenchmarkRoute routes a naturally congested placed design, so rip-up and
// the maze search run on every iteration.
func BenchmarkRoute(b *testing.B) {
	d := placedSpec(b, synth.TableII()[5], 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Route(d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Overflow == 0 {
			b.Fatal("benchmark design is not congested")
		}
	}
}
