package transport_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/journal"
	"mthplace/internal/server/scheduler"
)

// TestJobPanicBecomesFailed500: a panic anywhere under a job is converted
// to a typed error — the job fails with a 500, the daemon keeps serving,
// and no worker goroutine is lost.
func TestJobPanicBecomesFailed500(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1})
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		panic("solver ate a null pointer")
	})

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	if st := h.waitState(id, ""); st != scheduler.StateFailed {
		t.Fatalf("panicked job finished %q, want failed", st)
	}
	code, body := h.do("GET", "/jobs/"+id+"/result", nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("result status = %d, want 500 (body %v)", code, body)
	}
	var msg string
	_ = json.Unmarshal(body["error"], &msg)
	if !strings.Contains(msg, "internal panic") || !strings.Contains(msg, "null pointer") {
		t.Errorf("error %q does not name the panic", msg)
	}

	// Baseline after one complete panic cycle (the HTTP keep-alive
	// goroutines are warmed up), then five more: the count must not grow
	// per panicked job — that's the worker-goroutine leak check.
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if st := h.waitState(h.submit(scheduler.JobRequest{Testcase: "aes_300"}), ""); st != scheduler.StateFailed {
			t.Fatalf("panicked job %d finished %q, want failed", i, st)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > baseline {
		t.Errorf("goroutines grew from %d to %d across 5 panicked jobs", baseline, after)
	}

	// The worker survived: a healthy job on the same (sole) worker runs.
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		return map[flow.ID]flow.Metrics{flow.Flow5: {}}, nil
	})
	if st := h.waitState(h.submit(scheduler.JobRequest{Testcase: "aes_300"}), ""); st != scheduler.StateDone {
		t.Fatalf("job after panic finished %q, want done", st)
	}

	_, _, panics := h.sched.Resilience()
	if panics != 6 {
		t.Errorf("stats panics = %d, want 6", panics)
	}
}

// TestTransientFailureIsRetried: transient errors re-run up to MaxRetries,
// the attempt count and retry counter are visible, and success on a later
// attempt yields a normal done job.
func TestTransientFailureIsRetried(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, MaxRetries: 3, RetryBase: time.Millisecond})
	var calls atomic.Int64
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		if calls.Add(1) <= 2 {
			return nil, errs.Transient("flaky dependency")
		}
		return map[flow.ID]flow.Metrics{flow.Flow5: {}}, nil
	})

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	if st := h.waitState(id, ""); st != scheduler.StateDone {
		t.Fatalf("job finished %q, want done after retries", st)
	}
	_, body := h.do("GET", "/jobs/"+id, nil)
	var attempts int
	_ = json.Unmarshal(body["attempts"], &attempts)
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3 (2 transient failures + success)", attempts)
	}
	if _, retries, _ := h.sched.Resilience(); retries != 2 {
		t.Errorf("stats retries = %d, want 2", retries)
	}
}

// TestRetryBudgetExhausts: a persistently transient failure stops after
// MaxRetries and surfaces the final error.
func TestRetryBudgetExhausts(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, MaxRetries: 2, RetryBase: time.Millisecond})
	var calls atomic.Int64
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		calls.Add(1)
		return nil, errs.Transient("still down")
	})
	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	if st := h.waitState(id, ""); st != scheduler.StateFailed {
		t.Fatalf("job finished %q, want failed", st)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("executions = %d, want 3 (1 + 2 retries)", got)
	}
}

// TestNonTransientNotRetried: ordinary failures and panics run exactly
// once, even when the panic value wrapped a transient error.
func TestNonTransientNotRetried(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func() error
	}{
		{"plain error", func() error { return errors.New("disk on fire") }},
		{"infeasible", func() error { return errs.Infeasible("no row fits") }},
		{"panicked transient", func() error { panic(errs.Transient("wrapped in a panic")) }},
	} {
		h := newHarness(t, scheduler.Options{Workers: 1, MaxRetries: 3, RetryBase: time.Millisecond})
		var calls atomic.Int64
		h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
			calls.Add(1)
			return nil, tc.fn()
		})
		id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
		if st := h.waitState(id, ""); st != scheduler.StateFailed {
			t.Fatalf("%s: job finished %q, want failed", tc.name, st)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("%s: executions = %d, want 1", tc.name, got)
		}
	}
}

// TestDegradedJobSurfaced: a job whose solve settled below the ILP optimum
// is flagged on the job view and counted in /stats.
func TestDegradedJobSurfaced(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1})
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		return map[flow.ID]flow.Metrics{
			flow.Flow5: {SolveRung: "anytime", SolveDegraded: true, SolveDegradeReason: "node-limit", SolveGap: 0.1},
		}, nil
	})
	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	if st := h.waitState(id, ""); st != scheduler.StateDone {
		t.Fatalf("job finished %q, want done", st)
	}
	_, body := h.do("GET", "/jobs/"+id, nil)
	var degraded bool
	_ = json.Unmarshal(body["degraded"], &degraded)
	if !degraded {
		t.Error("job view does not flag the degraded solve")
	}
	code, body := h.do("GET", "/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var n int64
	_ = json.Unmarshal(body["jobs_degraded"], &n)
	if n != 1 {
		t.Errorf("stats jobs_degraded = %v, want 1", n)
	}
	// The degradation detail rides inside the metrics payload.
	_, rbody := h.do("GET", "/jobs/"+id+"/result", nil)
	var metrics map[string]flow.Metrics
	if err := json.Unmarshal(rbody["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if m := metrics["5"]; m.SolveRung != "anytime" || m.SolveDegradeReason != "node-limit" {
		t.Errorf("result metrics lost the rung detail: %+v", m)
	}
}

// newJournalHarness builds a harness whose server journals into dir.
func newJournalHarness(t *testing.T, dir string, opt scheduler.Options) *testHarness {
	t.Helper()
	opt.JournalDir = dir
	return newHarness(t, opt)
}

// TestJournalReplayRunsUnfinishedJob is the crash-recovery acceptance
// test: a journal showing an accepted job with no terminal event (the
// previous process died under it) makes a fresh server re-run it under
// its original ID and produce metrics identical to an undisturbed run.
func TestJournalReplayRunsUnfinishedJob(t *testing.T) {
	req := scheduler.JobRequest{Testcase: "aes_300", Flows: []int{4}, Scale: 0.02}

	// Undisturbed run for the reference metrics.
	h1 := newJournalHarness(t, t.TempDir(), scheduler.Options{Workers: 1})
	id1 := h1.submit(req)
	if st := h1.waitState(id1, ""); st != scheduler.StateDone {
		t.Fatalf("reference job finished %q", st)
	}
	_, body := h1.do("GET", "/jobs/"+id1+"/result", nil)
	var want map[string]flow.Metrics
	if err := json.Unmarshal(body["metrics"], &want); err != nil {
		t.Fatal(err)
	}

	// Forge the crash: a journal holding the acceptance record and a
	// started event, but no terminal line.
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(req)
	if err := j.Append(journal.Entry{Seq: 7, Job: "job-7", Event: journal.EventSubmitted, Request: raw}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Entry{Seq: 7, Job: "job-7", Event: journal.EventStarted}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	h2 := newJournalHarness(t, dir, scheduler.Options{Workers: 1})
	st := h2.waitState("job-7", "")
	if st != scheduler.StateDone {
		t.Fatalf("replayed job finished %q, want done", st)
	}
	_, body = h2.do("GET", "/jobs/job-7", nil)
	var replayed bool
	_ = json.Unmarshal(body["replayed"], &replayed)
	if !replayed {
		t.Error("job view does not mark the replay")
	}
	_, body = h2.do("GET", "/jobs/job-7/result", nil)
	var got map[string]flow.Metrics
	if err := json.Unmarshal(body["metrics"], &got); err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if zeroTimes(got[k]) != zeroTimes(want[k]) {
			t.Errorf("flow %s: replayed metrics diverge:\n got %+v\nwant %+v",
				k, zeroTimes(got[k]), zeroTimes(want[k]))
		}
	}

	// The sequence counter resumed past the replayed ID: new submissions
	// cannot collide.
	id2 := h2.submit(scheduler.JobRequest{Testcase: "aes_300", Flows: []int{1}, Scale: 0.02})
	if id2 != "job-8" {
		t.Errorf("post-replay submission got ID %s, want job-8", id2)
	}
	// The journal now records the replayed job's completion, so a third
	// server has nothing to do.
	if st := h2.waitState(id2, ""); st != scheduler.StateDone {
		t.Fatalf("post-replay job finished %q", st)
	}
	entries, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pending, _ := journal.Pending(entries); len(pending) != 0 {
		t.Errorf("journal still shows %d pending after completions: %+v", len(pending), pending)
	}
}

// TestJournalRecordsLifecycle: a journaled server writes
// submitted/started/leased/done for a normal job — an in-process lane
// leases its jobs like any other — so a restart never replays finished
// work.
func TestJournalRecordsLifecycle(t *testing.T) {
	dir := t.TempDir()
	h := newJournalHarness(t, dir, scheduler.Options{Workers: 1})
	h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		return map[flow.ID]flow.Metrics{flow.Flow5: {}}, nil
	})
	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	if st := h.waitState(id, ""); st != scheduler.StateDone {
		t.Fatalf("job finished %q", st)
	}
	entries, skipped, err := journal.ReadAll(dir)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadAll: %v (skipped %d)", err, skipped)
	}
	var events []string
	for _, e := range entries {
		if e.Job == id {
			events = append(events, e.Event)
		}
	}
	want := []string{journal.EventSubmitted, journal.EventStarted, journal.EventLeased, journal.EventDone}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}
