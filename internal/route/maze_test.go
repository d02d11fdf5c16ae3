package route

import (
	"math/rand"
	"reflect"
	"testing"
)

// mazeInstance is a random grid plus a sequence of segments to route on it.
type mazeInstance struct {
	g    *grid
	opt  Options
	segs []segment
}

// randomMazeInstance builds a w×h grid with track capacities in 1..12,
// random edge use up to twice the capacity, and n random segments. The
// maze limit stays small enough relative to the grid that some searches
// fail.
func randomMazeInstance(rng *rand.Rand, n int) mazeInstance {
	w, h := 1+rng.Intn(24), 1+rng.Intn(24)
	g := &grid{w: w, h: h, size: 100, hCap: int32(1 + rng.Intn(12)), vCap: int32(1 + rng.Intn(12))}
	g.hUse = make([]int32, w*h)
	g.vUse = make([]int32, w*h)
	for i := range g.hUse {
		g.hUse[i] = int32(rng.Intn(int(2*g.hCap) + 1))
		g.vUse[i] = int32(rng.Intn(int(2*g.vCap) + 1))
	}
	opt := Options{
		CongestionPenalty: []float64{0.001, 1, 4, 8}[rng.Intn(4)],
		MazeLimit:         1 + rng.Intn(w*h),
	}.withDefaults()
	segs := make([]segment, n)
	for i := range segs {
		segs[i] = segment{x1: rng.Intn(w), y1: rng.Intn(h), x2: rng.Intn(w), y2: rng.Intn(h)}
	}
	return mazeInstance{g, opt, segs}
}

// checkMazeAgainstRef routes the instance's segments in order through one
// reused astar and requires exactly the reference's paths (nil on a limit
// hit, empty for a zero-length segment) and the reference pattern route.
// Each result is committed to the grid, as Route does, so later searches
// see the congestion the earlier ones left.
func checkMazeAgainstRef(t *testing.T, in mazeInstance) (found, failed int) {
	t.Helper()
	var search astar
	for i := range in.segs {
		s := &in.segs[i]
		want := mazeRef(in.g, s, in.opt)
		got := search.maze(in.g, s, in.opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("segment %d (%d,%d)->(%d,%d) on %dx%d, limit %d: maze = %v, reference = %v",
				i, s.x1, s.y1, s.x2, s.y2, in.g.w, in.g.h, in.opt.MazeLimit, got, want)
		}
		pat, patRef := bestPattern(in.g, s, in.opt), bestPatternRef(in.g, s, in.opt)
		if !reflect.DeepEqual(pat, patRef) {
			t.Fatalf("segment %d: bestPattern = %v, reference = %v", i, pat, patRef)
		}
		if got == nil {
			failed++
			got = pat
		} else {
			found++
		}
		commit(in.g, s, got)
	}
	return found, failed
}

func TestMazeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var found, failed int
	for k := 0; k < 300; k++ {
		f, x := checkMazeAgainstRef(t, randomMazeInstance(rng, 1+rng.Intn(20)))
		found += f
		failed += x
	}
	// The table must exercise both outcomes of the search.
	if found == 0 || failed == 0 {
		t.Fatalf("found %d paths and hit the limit %d times; want both > 0", found, failed)
	}
}

func TestMazeEpochWrap(t *testing.T) {
	in := randomMazeInstance(rand.New(rand.NewSource(2)), 0)
	in.opt.MazeLimit = in.g.w*in.g.h + 1
	s := &segment{x1: 0, y1: 0, x2: in.g.w - 1, y2: in.g.h - 1}
	want := mazeRef(in.g, s, in.opt)
	var search astar
	search.maze(in.g, s, in.opt)
	// Leave stale stamps from epoch 1 behind, then wrap the counter so the
	// next search would reuse it.
	search.epoch = ^uint32(0)
	if got := search.maze(in.g, s, in.opt); !reflect.DeepEqual(got, want) {
		t.Fatalf("after epoch wrap: maze = %v, reference = %v", got, want)
	}
	if search.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", search.epoch)
	}
}

// FuzzMaze drives the differential check from fuzzer-chosen bytes: the
// header fixes the grid shape, capacities, penalty and maze limit; the rest
// fills edge use and segment endpoints.
func FuzzMaze(f *testing.F) {
	f.Add([]byte{5, 5, 1, 1, 0, 12, 9, 9, 9, 9, 0, 0, 4, 4})
	f.Add([]byte{12, 3, 4, 2, 2, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 2, 11, 0})
	f.Add([]byte{24, 24, 12, 12, 3, 255, 24, 0, 0, 23, 23, 23, 0, 0, 23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		w, h := 1+int(data[0])%24, 1+int(data[1])%24
		g := &grid{w: w, h: h, size: 100, hCap: int32(1 + data[2]%12), vCap: int32(1 + data[3]%12)}
		opt := Options{
			CongestionPenalty: []float64{0.001, 1, 4, 8}[data[4]%4],
			MazeLimit:         1 + int(data[5]),
		}.withDefaults()
		body := data[6:]
		next := func(i int) int {
			if len(body) == 0 {
				return 0
			}
			return int(body[i%len(body)])
		}
		g.hUse = make([]int32, w*h)
		g.vUse = make([]int32, w*h)
		for i := range g.hUse {
			g.hUse[i] = int32(next(2*i) % int(2*g.hCap+1))
			g.vUse[i] = int32(next(2*i+1) % int(2*g.vCap+1))
		}
		var segs []segment
		for i := 0; i+3 < len(body) && len(segs) < 32; i += 4 {
			segs = append(segs, segment{
				x1: int(body[i]) % w, y1: int(body[i+1]) % h,
				x2: int(body[i+2]) % w, y2: int(body[i+3]) % h,
			})
		}
		checkMazeAgainstRef(t, mazeInstance{g, opt, segs})
	})
}
