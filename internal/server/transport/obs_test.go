package transport_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"mthplace/internal/server/scheduler"
)

// scrape fetches /metrics and returns the exposition body.
func (h *testHarness) scrape() string {
	h.t.Helper()
	resp, err := http.Get(h.web.URL + "/metrics")
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		h.t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return string(body)
}

// TestMetricsEndpoint checks the Prometheus exposition carries the job
// lifecycle series before any job, and the canonical flow series after a
// real placement ran.
func TestMetricsEndpoint(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	out := h.scrape()
	for _, series := range []string{
		"jobs_degraded 0", "job_retries 0", "job_panics 0",
		"jobs_inflight 0", "jobs_started_total 0", "jobs_finished_total 0",
		"# TYPE jobs_degraded counter", "# TYPE jobs_inflight gauge",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("pre-job exposition missing %q:\n%s", series, out)
		}
	}

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	h.waitState(id, scheduler.StateDone)

	out = h.scrape()
	if !strings.Contains(out, "jobs_started_total 1") || !strings.Contains(out, "jobs_finished_total 1") {
		t.Errorf("job lifecycle counters not advanced:\n%s", out)
	}
	// The canonical process-wide series from the flow instrumentation must
	// be appended to the same scrape.
	for _, series := range []string{"mth_solve_total{", "mth_stage_seconds_bucket{"} {
		if !strings.Contains(out, series) {
			t.Errorf("post-job exposition missing %q", series)
		}
	}
}

// TestMetricsPerServerIsolation: two servers in one process must not share
// job-lifecycle counters.
func TestMetricsPerServerIsolation(t *testing.T) {
	a := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})
	b := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	id := a.submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02})
	a.waitState(id, scheduler.StateDone)

	if out := a.scrape(); !strings.Contains(out, "jobs_finished_total 1") {
		t.Errorf("server A finished counter:\n%s", out)
	}
	if out := b.scrape(); !strings.Contains(out, "jobs_finished_total 0") {
		t.Errorf("server B absorbed server A's jobs:\n%s", out)
	}
}

// TestStatsUptimeAndInflight covers the /stats additions: uptime_seconds
// grows, and jobs_inflight is the started-minus-finished difference.
func TestStatsUptimeAndInflight(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	h.setExec(blockingExec(release))

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	h.waitState(id, scheduler.StateRunning)

	_, body := h.do("GET", "/stats", nil)
	var uptime float64
	if err := json.Unmarshal(body["uptime_seconds"], &uptime); err != nil {
		t.Fatal(err)
	}
	if uptime <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", uptime)
	}
	var started, finished, inflight int64
	for key, dst := range map[string]*int64{
		"jobs_started": &started, "jobs_finished": &finished, "jobs_inflight": &inflight,
	} {
		if err := json.Unmarshal(body[key], dst); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if started != 1 || finished != 0 || inflight != 1 {
		t.Errorf("started/finished/inflight = %d/%d/%d, want 1/0/1", started, finished, inflight)
	}

	close(release)
	h.waitState(id, scheduler.StateDone)
	_, body = h.do("GET", "/stats", nil)
	if err := json.Unmarshal(body["jobs_inflight"], &inflight); err != nil {
		t.Fatal(err)
	}
	if inflight != 0 {
		t.Errorf("jobs_inflight after completion = %d, want 0", inflight)
	}
}

// TestJobViewProgress: a completed ILP job's view must expose the solver
// progress snapshot fed by the observability event stream.
func TestJobViewProgress(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})
	id := h.submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	h.waitState(id, scheduler.StateDone)

	_, body := h.do("GET", "/jobs/"+id, nil)
	if body["progress"] == nil {
		t.Fatalf("job view has no progress field: %v", body)
	}
	var p scheduler.JobProgress
	if err := json.Unmarshal(body["progress"], &p); err != nil {
		t.Fatal(err)
	}
	if p.Events == 0 {
		t.Error("progress recorded no events")
	}
	if p.Stage == "" {
		t.Error("progress has no last stage")
	}
	if p.KMeansIterations == 0 {
		t.Error("progress recorded no k-means iterations")
	}
	if p.Incumbents == 0 {
		t.Error("progress recorded no solver incumbents")
	}
}
