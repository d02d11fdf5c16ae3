package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mthplace/internal/journal"
	"mthplace/internal/obs"
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
	h := newHarness(t, Options{Workers: 1, QueueDepth: 4})

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

	id := h.submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	h.waitState(id, StateDone)

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
	a := newHarness(t, Options{Workers: 1, QueueDepth: 4})
	b := newHarness(t, Options{Workers: 1, QueueDepth: 4})

	id := a.submit(JobRequest{Testcase: "aes_300", Scale: 0.02})
	a.waitState(id, StateDone)

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
	h := newHarness(t, Options{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	h.srv.setExec(blockingExec(release))

	id := h.submit(JobRequest{Testcase: "aes_300"})
	h.waitState(id, StateRunning)

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
	h.waitState(id, StateDone)
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
	h := newHarness(t, Options{Workers: 1, QueueDepth: 4})
	id := h.submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	h.waitState(id, StateDone)

	_, body := h.do("GET", "/jobs/"+id, nil)
	if body["progress"] == nil {
		t.Fatalf("job view has no progress field: %v", body)
	}
	var p JobProgress
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

// TestReplayLogging: journal replay must be narrated through the
// configured logger — re-queued jobs, corrupt-line warnings, and
// validation failures of replayed requests.
func TestReplayLogging(t *testing.T) {
	// Forge a crash artifact: one replayable job, one job whose recorded
	// request no longer validates, and one corrupt line.
	dir := t.TempDir()
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(JobRequest{Testcase: "aes_300", Flows: []int{4}, Scale: 0.02})
	bad, _ := json.Marshal(JobRequest{Testcase: "no_such_testcase"})
	if err := j.Append(journal.Entry{Seq: 1, Job: "job-1", Event: journal.EventSubmitted, Request: good}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journal.Entry{Seq: 2, Job: "job-2", Event: journal.EventSubmitted, Request: bad}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(filepath.Join(dir, journal.FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	var mu sync.Mutex
	lw := &lockedWriter{w: &buf, mu: &mu}
	s, err := New(Options{Workers: 1, QueueDepth: 4, JournalDir: dir,
		Logger: obs.NewCLILogger(lw, false, false)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		jb := s.job("job-1")
		if jb == nil {
			t.Fatal("job-1 not replayed")
		}
		st, _ := jb.Snapshot()
		if st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replayed job stuck in %q", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if jb := s.job("job-2"); jb == nil {
		t.Error("invalid replayed job not registered")
	} else if st, _ := jb.Snapshot(); st != StateFailed {
		t.Errorf("invalid replayed job state %q, want failed", st)
	}

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	for _, want := range []string{
		"skipped unparseable lines",
		"replaying unfinished jobs",
		"re-queued job", "job-1",
		"failed validation", "job-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay log missing %q:\n%s", want, out)
		}
	}
}

// lockedWriter serialises concurrent log writes into one buffer.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
