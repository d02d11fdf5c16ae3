package scheduler

import (
	"context"
	"errors"
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

// TestStatsCapacitySumsLanes: queue_depth and queue_capacity describe the
// one queue, so a full fabric shows its queue within its bound; each lane's
// depth counts the jobs in flight on it, within its dispatcher count; and
// busy_workers stays within workers. share() gives every lane at least one
// worker, so two lanes with Workers 1 report two workers.
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
	// Fill the fabric: one running job per lane, then one queued job.
	for seed := int64(1); seed <= 3; seed++ {
		jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: seed, Solver: "greedy"})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed < 3 {
			waitRunning(t, jb)
		}
	}
	if _, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: 4, Solver: "greedy"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
	}
	snap := s.Stats()
	var workers int
	for _, b := range snap.Backends {
		workers += b.Workers
		if b.Depth != 1 || b.Depth > b.Capacity {
			t.Errorf("lane %s depth %d of capacity %d, want 1 within capacity", b.Name, b.Depth, b.Capacity)
		}
	}
	if snap.Workers != workers || snap.Workers != 2 {
		t.Errorf("workers = %d, lanes sum to %d, want 2", snap.Workers, workers)
	}
	if snap.QueueDepth != 1 || snap.QueueCapacity != 1 {
		t.Errorf("queue_depth %d of queue_capacity %d, want 1 of 1", snap.QueueDepth, snap.QueueCapacity)
	}
	if snap.BusyWorkers != 2 || snap.BusyWorkers > snap.Workers {
		t.Errorf("busy_workers %d of workers %d, want 2 within workers", snap.BusyWorkers, snap.Workers)
	}
}

// waitRunning polls a job until a lane has claimed it.
func waitRunning(t *testing.T, jb *Job) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st, _ := jb.Snapshot(); st != StateRunning; st, _ = jb.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want running", jb.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleLaneTakesQueuedJob: a job waits for whichever lane is free, not
// for the lane a hash picked. With two in-process lanes of one worker each
// and a queue of two, three identical submissions are all accepted: two run
// at once, one on each lane, and the third waits in the queue.
func TestIdleLaneTakesQueuedJob(t *testing.T) {
	s := newSched(t, Options{Workers: 2, QueueDepth: 2, Backends: 2})
	release := make(chan struct{})
	defer close(release)
	s.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, errs.FromContext(ctx)
	})
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"}
	var jobs []*Job
	for i := 1; i <= 3; i++ {
		jb, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submission %d refused: %v", i, err)
		}
		jobs = append(jobs, jb)
		if i == 1 {
			waitRunning(t, jb)
		}
	}
	waitRunning(t, jobs[1])
	lanes := map[string]bool{jobs[0].View().Backend: true, jobs[1].View().Backend: true}
	if !lanes["local-0"] || !lanes["local-1"] {
		t.Errorf("jobs 1 and 2 run on %v, want local-0 and local-1", lanes)
	}
	if st, _ := jobs[0].Snapshot(); st != StateRunning {
		t.Errorf("job 1 is %q while job 2 runs, want both running", st)
	}
	if st, _ := jobs[2].Snapshot(); st != StateQueued {
		t.Errorf("job 3 is %q, want queued", st)
	}
	snap := s.Stats()
	if snap.BusyWorkers != 2 || snap.Workers != 2 {
		t.Errorf("busy_workers %d/%d, want 2/2", snap.BusyWorkers, snap.Workers)
	}
	if snap.QueueDepth != 1 || snap.QueueCapacity != 2 {
		t.Errorf("queue_depth %d/%d, want 1/2", snap.QueueDepth, snap.QueueCapacity)
	}
}
