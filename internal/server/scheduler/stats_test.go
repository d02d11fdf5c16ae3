package scheduler

import (
	"context"
	"sync"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
)

// TestStatsPercentiles: known latency samples produce the documented
// nearest-rank percentiles, monotone p50 ≤ p90 ≤ p99.
func TestStatsPercentiles(t *testing.T) {
	st := newStats()
	for i := 1; i <= 100; i++ {
		st.recordFlow(flow.Flow5, time.Duration(i)*time.Millisecond)
	}
	_, perFlow := st.snapshot(1)
	fl, ok := perFlow[flow.Flow5.String()]
	if !ok {
		t.Fatalf("no latency entry for %v: %v", flow.Flow5, perFlow)
	}
	if fl.Count != 100 {
		t.Errorf("Count = %d, want 100", fl.Count)
	}
	if fl.P50ms != 50 || fl.P90ms != 90 || fl.P99ms != 99 {
		t.Errorf("percentiles = %v/%v/%v, want 50/90/99", fl.P50ms, fl.P90ms, fl.P99ms)
	}
	if !(fl.P50ms <= fl.P90ms && fl.P90ms <= fl.P99ms) {
		t.Errorf("percentiles not monotone: %+v", fl)
	}
}

// TestStatsRingBound: the ring retains only the newest maxLatencySamples
// but keeps counting, so Count reflects lifetime completions while the
// percentiles reflect recent behaviour.
func TestStatsRingBound(t *testing.T) {
	st := newStats()
	// Old slow samples that should age out entirely...
	for i := 0; i < maxLatencySamples; i++ {
		st.recordFlow(flow.Flow2, time.Hour)
	}
	// ...displaced by fast recent ones.
	for i := 0; i < maxLatencySamples; i++ {
		st.recordFlow(flow.Flow2, time.Millisecond)
	}
	_, perFlow := st.snapshot(1)
	fl := perFlow[flow.Flow2.String()]
	if fl.Count != 2*maxLatencySamples {
		t.Errorf("Count = %d, want %d", fl.Count, 2*maxLatencySamples)
	}
	if fl.P99ms != 1 {
		t.Errorf("P99 = %vms: old samples still retained", fl.P99ms)
	}
}

// TestLatencyRingConcurrentLoad hammers the per-flow latency ring from many
// goroutines while stats snapshots run, checking totals and bounds hold.
func TestLatencyRingConcurrentLoad(t *testing.T) {
	s := newStats()
	const (
		writers = 8
		perW    = 400 // 3200 total: far past maxLatencySamples
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: must never race or panic
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				s.snapshot(writers)
				// Yield so the writers make progress on small hosts: the
				// point is interleaving, not starvation.
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.recordFlow(flow.Flow5, time.Duration(w*perW+i)*time.Microsecond)
				s.addBusy(time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if want := writers * perW * time.Microsecond; s.busyNanos != want {
		t.Errorf("busy time = %v, want %v", s.busyNanos, want)
	}
	util, perFlow := s.snapshot(writers)
	if util < 0 || util > 1 {
		t.Errorf("utilization %v out of [0,1]", util)
	}
	lat := perFlow[flow.Flow5.String()]
	if lat.Count != writers*perW {
		t.Errorf("ring total = %d, want %d", lat.Count, writers*perW)
	}
	// The ring retains at most maxLatencySamples; percentiles must still be
	// ordered.
	if !(lat.P50ms <= lat.P90ms && lat.P90ms <= lat.P99ms) {
		t.Errorf("percentiles out of order: %+v", lat)
	}
}

// TestStatsCapacitySumsLanes: queue_capacity and workers are sums over the
// lanes, like queue_depth. share() gives every lane at least one queue slot
// and one worker, so with more lanes than the configured totals the
// configured numbers under-report, and a full fabric showed a depth above
// its capacity and more busy workers than workers.
func TestStatsCapacitySumsLanes(t *testing.T) {
	s := newSched(t, Options{Workers: 1, QueueDepth: 1, Backends: 2})
	release := make(chan struct{})
	defer close(release)
	s.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errs.FromContext(ctx)
	})
	// Fill both lanes: one running and one queued job each.
	perLane := make([]int, 2)
	for seed := int64(1); perLane[0] < 2 || perLane[1] < 2; seed++ {
		if seed > 200 {
			t.Fatalf("seeds 1..200 did not fill both lanes: %v", perLane)
		}
		req := JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: seed, Solver: "greedy"}
		lane := s.ring.pick(routingKey(s.instanceKeys(&req)))
		if perLane[lane] == 2 {
			continue
		}
		jb, err := s.Submit(req)
		if err != nil {
			t.Fatalf("lane %d seed %d: %v", lane, seed, err)
		}
		if perLane[lane] == 0 {
			for st, _ := jb.Snapshot(); st != StateRunning; st, _ = jb.Snapshot() {
				time.Sleep(time.Millisecond)
			}
		}
		perLane[lane]++
	}
	snap := s.Stats()
	var capacity, workers int
	for _, b := range snap.Backends {
		capacity += b.Capacity
		workers += b.Workers
	}
	if snap.QueueCapacity != capacity || snap.Workers != workers {
		t.Errorf("queue_capacity/workers = %d/%d, lanes sum to %d/%d",
			snap.QueueCapacity, snap.Workers, capacity, workers)
	}
	if snap.QueueDepth != 2 || snap.QueueDepth > snap.QueueCapacity {
		t.Errorf("queue_depth %d of queue_capacity %d, want 2 within capacity", snap.QueueDepth, snap.QueueCapacity)
	}
	if snap.BusyWorkers != 2 || snap.BusyWorkers > snap.Workers {
		t.Errorf("busy_workers %d of workers %d, want 2 within workers", snap.BusyWorkers, snap.Workers)
	}
}
