package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 33} {
		p := NewPool(jobs)
		for _, n := range []int{0, 1, 7, 256, 1000} {
			hits := make([]int32, n)
			p.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("jobs=%d n=%d: index %d hit %d times", jobs, n, i, h)
				}
			}
		}
	}
}

func TestForErrReturnsLowestObservedIndex(t *testing.T) {
	wantErr := errors.New("boom")
	err := NewPool(8).ForErr(100, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("i=%d: %w", i, wantErr)
		}
		return nil
	})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	// The reported error is the lowest-indexed among the observed failures;
	// with dynamic scheduling an earlier failing index may have been skipped,
	// but index 3 is always claimed before any error can stop the run when
	// jobs=1.
	seq := NewPool(1)
	err = seq.ForErr(100, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("i=%d: %w", i, wantErr)
		}
		return nil
	})
	if err == nil || err.Error() != "i=3: boom" {
		t.Fatalf("sequential first error = %v, want i=3", err)
	}
	if err := seq.ForErr(50, func(int) error { return nil }); err != nil {
		t.Fatalf("nil-error run returned %v", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		out, err := MapOn(NewPool(jobs), 500, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d", jobs, i, v)
			}
		}
	}
	if _, err := MapOn(NewPool(8), 10, func(i int) (int, error) {
		if i == 7 {
			return 0, errors.New("x")
		}
		return i, nil
	}); err == nil {
		t.Fatal("Map must propagate errors")
	}
}

func TestForChunksCanonicalBoundaries(t *testing.T) {
	// Chunk boundaries must depend only on n, not on the worker count.
	for _, n := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 5*chunkSize + 17} {
		var bounds1, bounds8 [][2]int
		NewPool(1).ForChunks(n, func(ci, lo, hi int) { bounds1 = append(bounds1, [2]int{lo, hi}) })
		got := make([][2]int, NumChunks(n))
		NewPool(8).ForChunks(n, func(ci, lo, hi int) { got[ci] = [2]int{lo, hi} })
		bounds8 = got
		if len(bounds1) != NumChunks(n) || len(bounds8) != NumChunks(n) {
			t.Fatalf("n=%d: chunk counts %d/%d, want %d", n, len(bounds1), len(bounds8), NumChunks(n))
		}
		covered := 0
		for ci := range bounds8 {
			lo, hi := bounds8[ci][0], bounds8[ci][1]
			if lo != ci*chunkSize || hi <= lo || hi > n {
				t.Fatalf("n=%d chunk %d: bad bounds [%d,%d)", n, ci, lo, hi)
			}
			covered += hi - lo
		}
		if covered != n {
			t.Fatalf("n=%d: chunks cover %d", n, covered)
		}
	}
}

// TestChunkedFloatReductionDeterministic is the contract the k-means
// centroid accumulation relies on: per-chunk partials merged in chunk order
// give bit-identical sums at any worker count.
func TestChunkedFloatReductionDeterministic(t *testing.T) {
	n := 10*chunkSize + 31
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1e-3 * float64((i*2654435761)%1000003) / 1000003
	}
	sum := func(p *Pool) float64 {
		parts := make([]float64, NumChunks(n))
		p.ForChunks(n, func(ci, lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			parts[ci] = s
		})
		var total float64
		for _, p := range parts {
			total += p
		}
		return total
	}
	a := sum(NewPool(1))
	b := sum(NewPool(7))
	if a != b {
		t.Fatalf("chunked reduction differs: %x vs %x", a, b)
	}
}

func TestNestedCallsStayBounded(t *testing.T) {
	p := NewPool(4)
	var peak, cur atomic.Int64
	p.For(16, func(int) {
		p.For(16, func(int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
		})
	})
	// Callers always work themselves; extra workers are bounded by jobs-1,
	// so at most jobs goroutines may ever execute iterations at once even
	// when calls nest.
	if got := peak.Load(); got > 4 {
		t.Fatalf("peak concurrency %d exceeds jobs=4", got)
	}
}

func TestWorkerPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate to the caller")
		}
	}()
	NewPool(8).For(64, func(i int) {
		if i == 13 {
			panic("worker 13")
		}
	})
}

func TestNewPoolBound(t *testing.T) {
	if got := NewPool(3).Jobs(); got != 3 {
		t.Fatalf("NewPool(3).Jobs() = %d", got)
	}
	t.Setenv("MTHPLACE_JOBS", "")
	if got := NewPool(0).Jobs(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default jobs %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv("MTHPLACE_JOBS", "5")
	if got := NewPool(0).Jobs(); got != 5 {
		t.Fatalf("MTHPLACE_JOBS=5: jobs %d", got)
	}
	if got := NewPool(2).Jobs(); got != 2 {
		t.Fatalf("explicit bound must win over MTHPLACE_JOBS: jobs %d", got)
	}
	for _, bad := range []string{"0", "-3", "many"} {
		t.Setenv("MTHPLACE_JOBS", bad)
		if got := resolveJobs(0); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("MTHPLACE_JOBS=%q: jobs %d, want GOMAXPROCS", bad, got)
		}
	}
}

func TestGrainFor(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{0, 8, 1},
		{1, 8, 1},
		{100, 8, 1},                     // fewer iterations than blocks: unit grain
		{8 * blocksPerWorker * 8, 8, 8}, // exactly blocksPerWorker blocks per worker
		{1 << 20, 4, 1 << 20 / (4 * 8)},
		{1 << 20, 0, 1 << 20 / 8}, // degenerate worker count clamps to 1
	}
	for _, c := range cases {
		if got := grainFor(c.n, c.workers); got != c.want {
			t.Errorf("grainFor(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
	// Whatever the grain, every worker must still see work: the block count
	// at the chosen grain is at least the worker count for large n.
	for _, w := range []int{1, 2, 8, 64} {
		n := 1 << 16
		g := grainFor(n, w)
		if blocks := (n + g - 1) / g; blocks < w {
			t.Errorf("workers=%d: only %d blocks at grain %d", w, blocks, g)
		}
	}
}

// BenchmarkForCheapIterations measures the scheduling overhead on
// micro-iterations, the case the claim grain exists for.
func BenchmarkForCheapIterations(b *testing.B) {
	var sink atomic.Int64
	for b.Loop() {
		Default.For(1<<16, func(i int) {
			if i&1023 == 0 {
				sink.Add(1)
			}
		})
	}
}

// TestStress hammers nested For/Map under the race detector.
func TestStress(t *testing.T) {
	p := NewPool(8)
	for round := 0; round < 20; round++ {
		out, err := MapOn(p, 32, func(i int) (int64, error) {
			var local int64
			p.ForChunks(512, func(ci, lo, hi int) {
				for j := lo; j < hi; j++ {
					atomic.AddInt64(&local, int64(j%7))
				}
			})
			return local, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != out[0] {
				t.Fatalf("round %d: out[%d]=%d differs from out[0]=%d", round, i, v, out[0])
			}
		}
	}
}
