package flow

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/synth"
)

// zeroTimes strips the wall-clock fields so the deterministic remainder of
// a Metrics struct can be compared with ==.
func zeroTimes(m Metrics) Metrics {
	m.RAPTime, m.LegalTime, m.TotalTime = 0, 0, 0
	return m
}

// TestRunPreCanceledContext: a context canceled before Run starts must
// surface ErrCanceled from every flow without doing any work.
func TestRunPreCanceledContext(t *testing.T) {
	r := newRunner(t, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []ID{Flow1, Flow2, Flow3, Flow4, Flow5} {
		_, err := r.Run(ctx, id, false)
		if !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", id, err)
		}
		if errors.Is(err, errs.ErrTimeout) || errors.Is(err, errs.ErrInfeasible) {
			t.Errorf("%v: err %v matched an unrelated class", id, err)
		}
	}
}

// TestNewRunnerPreCanceledContext: preparation also respects cancellation.
func TestNewRunnerPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner(ctx, synth.TableII()[0], testConfig(0.02)); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestDeadlineSurfacesAsTimeout: an already-expired deadline maps to
// ErrTimeout, not ErrCanceled.
func TestDeadlineSurfacesAsTimeout(t *testing.T) {
	r := newRunner(t, 0.02)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := r.Run(ctx, Flow5, false)
	if !errors.Is(err, errs.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if errors.Is(err, errs.ErrCanceled) {
		t.Errorf("expired deadline classified as cancel: %v", err)
	}
}

// TestRunCancelMidFlow exercises the satellite guarantee: canceling while
// Flow (5) is inside its ILP/k-means/legalization stages returns
// ErrCanceled promptly — the abort is bounded by one solver or Lloyd
// iteration, so the canceled run must come back well under the full
// uncanceled runtime. Goroutine counts are compared before/after to catch
// leaked pool workers.
func TestRunCancelMidFlow(t *testing.T) {
	cfg := DefaultConfig()
	// Large enough that the exact RAP solve runs for hundreds of
	// milliseconds, so the cancel lands inside a stage.
	cfg.Synth.Scale = 0.3
	r, err := NewRunner(context.Background(), synth.TableII()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Uncanceled baseline runtime.
	start := time.Now()
	if _, err := r.Run(context.Background(), Flow5, false); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 50*time.Millisecond {
		t.Skipf("flow too fast on this host (%v) for a meaningful mid-run cancel", full)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(full/10, cancel)
	start = time.Now()
	_, err = r.Run(ctx, Flow5, false)
	elapsed := time.Since(start)
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed >= full {
		t.Errorf("canceled run took %v, not faster than full run %v", elapsed, full)
	}
	// Pool workers unwind with the canceled stage; give the runtime a
	// moment to reap them, then require the count back near the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines grew from %d to %d after canceled run", before, n)
	}
}

// TestConcurrentRunnersIndependentJobs: two runners with Jobs=1 and Jobs=8
// executing at the same time must each reproduce the serial reference
// bit-for-bit, because each runner's pool bound is private to it.
func TestConcurrentRunnersIndependentJobs(t *testing.T) {
	spec := synth.TableII()[0]
	mkCfg := func(jobs int) Config {
		c := testConfig(0.02)
		c.Jobs = jobs
		return c
	}

	// Serial reference.
	ref, err := NewRunner(context.Background(), spec, mkCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	want := zeroTimes(refRes.Metrics)

	var wg sync.WaitGroup
	got := make([]Metrics, 2)
	errsCh := make([]error, 2)
	for i, jobs := range []int{1, 8} {
		wg.Add(1)
		go func(i, jobs int) {
			defer wg.Done()
			r, err := NewRunner(context.Background(), spec, mkCfg(jobs))
			if err != nil {
				errsCh[i] = err
				return
			}
			res, err := r.Run(context.Background(), Flow5, false)
			if err != nil {
				errsCh[i] = err
				return
			}
			got[i] = zeroTimes(res.Metrics)
		}(i, jobs)
	}
	wg.Wait()
	for i, jobs := range []int{1, 8} {
		if errsCh[i] != nil {
			t.Fatalf("jobs=%d: %v", jobs, errsCh[i])
		}
		if got[i] != want {
			t.Errorf("jobs=%d: metrics diverged from serial reference:\n got %+v\nwant %+v", jobs, got[i], want)
		}
	}
}
