package transport_test

import (
	"encoding/json"
	"net/http"
	"testing"

	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
)

// TestStatsLatencyAfterJobs submits real jobs and asserts /stats reports
// populated, monotone latency percentiles and consistent worker/queue
// gauges once they complete. (TestStatsEndpoint covers the in-flight
// gauges with a stubbed executor; this test exercises the real path.)
func TestStatsLatencyAfterJobs(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 2, QueueDepth: 8})

	const n = 5
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, h.submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.01, Flows: []int{1, 5}}))
	}
	for _, id := range ids {
		if st := h.waitState(id, scheduler.StateDone); st != scheduler.StateDone {
			t.Fatalf("job %s finished in state %q", id, st)
		}
	}

	code, body := h.do("GET", "/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	var workers, busy, depth int
	var util float64
	must := func(key string, v any) {
		t.Helper()
		raw, ok := body[key]
		if !ok {
			t.Fatalf("/stats missing %q: %v", key, body)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%q: %v", key, err)
		}
	}
	must("workers", &workers)
	must("busy_workers", &busy)
	must("queue_depth", &depth)
	must("worker_utilization", &util)
	if workers != 2 {
		t.Errorf("workers = %d, want 2", workers)
	}
	if busy != 0 || depth != 0 {
		t.Errorf("idle server reports busy=%d depth=%d", busy, depth)
	}
	if util < 0 || util > 1 {
		t.Errorf("utilization %v out of [0,1]", util)
	}

	var perFlow map[string]scheduler.FlowLatency
	must("flow_latency", &perFlow)
	for _, id := range []flow.ID{flow.Flow1, flow.Flow5} {
		fl, ok := perFlow[id.String()]
		if !ok {
			t.Fatalf("flow_latency missing %v after %d completions: %v", id, n, perFlow)
		}
		if fl.Count != n {
			t.Errorf("%v: Count = %d, want %d", id, fl.Count, n)
		}
		if fl.P50ms <= 0 {
			t.Errorf("%v: P50 not populated: %+v", id, fl)
		}
		if !(fl.P50ms <= fl.P90ms && fl.P90ms <= fl.P99ms) {
			t.Errorf("%v: percentiles not monotone: %+v", id, fl)
		}
	}

	var jobs map[string]int
	must("jobs", &jobs)
	if jobs[string(scheduler.StateDone)] != n {
		t.Errorf("jobs[done] = %d, want %d (all: %v)", jobs[string(scheduler.StateDone)], n, jobs)
	}
}
