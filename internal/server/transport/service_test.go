package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/internal/synth"
)

// testHarness serves a scheduler through the HTTP transport behind an
// httptest front end.
type testHarness struct {
	t     *testing.T
	sched *scheduler.Scheduler
	web   *httptest.Server
}

// newHarness starts a scheduler and its transport; both stop at cleanup.
func newHarness(t *testing.T, opt scheduler.Options) *testHarness {
	t.Helper()
	s, err := scheduler.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	h := serve(t, s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return h
}

// serve puts s behind an httptest server, closed at cleanup, and leaves
// shutting s down to the caller.
func serve(t *testing.T, s *scheduler.Scheduler) *testHarness {
	web := httptest.NewServer(transport.New(s).Handler())
	t.Cleanup(web.Close)
	return &testHarness{t: t, sched: s, web: web}
}

// metricsExec is the signature of a stub executor that yields only flow
// metrics.
type metricsExec func(context.Context, scheduler.JobRequest) (map[flow.ID]flow.Metrics, error)

// setExec swaps the scheduler's executor for a metrics-only stub.
func (h *testHarness) setExec(fn metricsExec) {
	h.sched.SetExec(func(ctx context.Context, req scheduler.JobRequest) (*scheduler.ExecResult, error) {
		m, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		return &scheduler.ExecResult{Metrics: m}, nil
	})
}

func (h *testHarness) do(method, path string, body any) (int, map[string]json.RawMessage) {
	h.t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			h.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, h.web.URL+path, &buf)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		h.t.Fatalf("%s %s: decoding body: %v", method, path, err)
	}
	return resp.StatusCode, m
}

func (h *testHarness) submit(req scheduler.JobRequest) string {
	h.t.Helper()
	code, body := h.do("POST", "/jobs", req)
	if code != http.StatusAccepted {
		h.t.Fatalf("submit: status %d, body %v", code, body)
	}
	var id string
	if err := json.Unmarshal(body["id"], &id); err != nil {
		h.t.Fatal(err)
	}
	return id
}

func (h *testHarness) state(id string) scheduler.State {
	h.t.Helper()
	code, body := h.do("GET", "/jobs/"+id, nil)
	if code != http.StatusOK {
		h.t.Fatalf("status %s: %d", id, code)
	}
	var st scheduler.State
	if err := json.Unmarshal(body["state"], &st); err != nil {
		h.t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want (or any terminal state when
// want is empty), failing on timeout.
func (h *testHarness) waitState(id string, want scheduler.State) scheduler.State {
	h.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := h.state(id)
		if st == want || (want == "" && st.Terminal()) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.t.Fatalf("job %s never reached %q (last %q)", id, want, h.state(id))
	return ""
}

// zeroTimes strips wall-clock fields so the deterministic remainder
// compares with ==.
func zeroTimes(m flow.Metrics) flow.Metrics {
	m.RAPTime, m.LegalTime, m.TotalTime = 0, 0, 0
	return m
}

// TestEndToEndMatchesDirectRunner is the acceptance check: metrics fetched
// over HTTP for Flows (2) and (5) equal a direct flow.Runner run of the
// same spec and config, field for field (wall-clock times excluded).
func TestEndToEndMatchesDirectRunner(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 2, QueueDepth: 4})
	const scale = 0.02
	spec := synth.TableII()[0] // aes_300, the smallest-cell aes point

	id := h.submit(scheduler.JobRequest{Testcase: spec.Name(), Flows: []int{2, 5}, Scale: scale})
	if st := h.waitState(id, ""); st != scheduler.StateDone {
		t.Fatalf("job finished %q, want done", st)
	}
	code, body := h.do("GET", "/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: status %d, body %v", code, body)
	}
	var metrics map[string]flow.Metrics
	if err := json.Unmarshal(body["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}

	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = scale
	r, err := flow.NewRunner(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, fid := range []flow.ID{flow.Flow2, flow.Flow5} {
		res, err := r.Run(context.Background(), fid, false)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := metrics[fmt.Sprintf("%d", int(fid))]
		if !ok {
			t.Fatalf("result missing %v", fid)
		}
		if zeroTimes(got) != zeroTimes(res.Metrics) {
			t.Errorf("%v: HTTP metrics diverge from direct runner:\n got %+v\nwant %+v",
				fid, zeroTimes(got), zeroTimes(res.Metrics))
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, scheduler.Options{})
	cases := []struct {
		name string
		req  scheduler.JobRequest
	}{
		{"no spec", scheduler.JobRequest{Flows: []int{5}}},
		{"unknown testcase", scheduler.JobRequest{Testcase: "nope_123"}},
		{"flow out of range", scheduler.JobRequest{Testcase: "aes_300", Flows: []int{9}}},
		{"both spec and testcase", scheduler.JobRequest{Testcase: "aes_300", Spec: &synth.Spec{Circuit: "x", Cells: 10}}},
		{"negative jobs", scheduler.JobRequest{Testcase: "aes_300", Jobs: -1}},
	}
	for _, tc := range cases {
		if code, _ := h.do("POST", "/jobs", tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(h.web.URL+"/jobs", "application/json", bytes.NewBufferString("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if code, _ := h.do("GET", "/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", code)
	}
}

// TestSubmitRejectsBareCircuitName checks that the service accepts the
// same testcase names as the CLI (synth.Lookup): a bare circuit name such
// as "aes_cipher_top" names no clock variant and is refused with a 400
// that names it, before any job is queued.
func TestSubmitRejectsBareCircuitName(t *testing.T) {
	h := newHarness(t, scheduler.Options{})
	for _, name := range []string{"aes_cipher_top", "aes"} {
		code, body := h.do("POST", "/jobs", scheduler.JobRequest{Testcase: name})
		if code != http.StatusBadRequest {
			t.Fatalf("testcase %q: status %d, want 400", name, code)
		}
		if msg := string(body["error"]); !strings.Contains(msg, name) {
			t.Errorf("testcase %q: error %s does not name it", name, msg)
		}
	}
	for state, n := range h.sched.Stats().JobCounts {
		if n != 0 {
			t.Errorf("%d jobs %s, want none queued", n, state)
		}
	}
}

// blockingExec replaces the real flow execution with one that parks until
// released (or canceled), making queue and cancellation behavior
// deterministic.
func blockingExec(release <-chan struct{}) metricsExec {
	return func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
		select {
		case <-release:
			return map[flow.ID]flow.Metrics{flow.Flow5: {Flow: flow.Flow5, HPWL: 42}}, nil
		case <-ctx.Done():
			return nil, errs.FromContext(ctx)
		}
	}
}

func TestQueueBackpressureAndCancel(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	h.setExec(blockingExec(release))
	req := scheduler.JobRequest{Testcase: "aes_300"}

	running := h.submit(req)
	h.waitState(running, scheduler.StateRunning)
	// Result is 409 while the job is in flight.
	if code, _ := h.do("GET", "/jobs/"+running+"/result", nil); code != http.StatusConflict {
		t.Errorf("result while running: status %d, want 409", code)
	}

	queued := h.submit(req) // fills the queue
	if code, _ := h.do("POST", "/jobs", req); code != http.StatusTooManyRequests {
		t.Errorf("overflow submit: status %d, want 429", code)
	}

	// Canceling the queued job finishes it immediately; the worker never
	// runs it.
	if code, _ := h.do("POST", "/jobs/"+queued+"/cancel", nil); code != http.StatusOK {
		t.Errorf("cancel queued: status not 200")
	}
	if st := h.state(queued); st != scheduler.StateCanceled {
		t.Errorf("queued job state %q after cancel, want canceled", st)
	}
	if code, _ := h.do("GET", "/jobs/"+queued+"/result", nil); code != transport.StatusClientClosedRequest {
		t.Errorf("canceled result: status %d, want 499", code)
	}

	// Canceling the running job cancels its context; the stub unwinds with
	// ErrCanceled exactly like a real flow would.
	if code, _ := h.do("DELETE", "/jobs/"+running, nil); code != http.StatusOK {
		t.Errorf("cancel running: status not 200")
	}
	if st := h.waitState(running, ""); st != scheduler.StateCanceled {
		t.Errorf("running job finished %q after cancel, want canceled", st)
	}
	// Double cancel on a finished job is a 409.
	if code, _ := h.do("POST", "/jobs/"+running+"/cancel", nil); code != http.StatusConflict {
		t.Errorf("double cancel: status not 409")
	}

	// The worker is free again: a fresh job runs to completion once
	// released. The canceled queued job keeps its queue slot until the
	// freed worker drains it, so wait for the queue to empty first.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		_, stats := h.do("GET", "/stats", nil)
		var depth int
		if err := json.Unmarshal(stats["queue_depth"], &depth); err != nil {
			t.Fatal(err)
		}
		if depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth still %d after canceling both jobs", depth)
		}
	}
	done := h.submit(req)
	h.waitState(done, scheduler.StateRunning)
	close(release)
	if st := h.waitState(done, ""); st != scheduler.StateDone {
		t.Errorf("released job finished %q, want done", st)
	}
	code, body := h.do("GET", "/jobs/"+done+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("released result: status %d", code)
	}
	var metrics map[string]flow.Metrics
	if err := json.Unmarshal(body["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["5"].HPWL != 42 {
		t.Errorf("released result HPWL = %d, want 42", metrics["5"].HPWL)
	}
}

func TestErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errs.Infeasible("capacity exceeded"), http.StatusUnprocessableEntity},
		{fmt.Errorf("stage: %w", errs.ErrTimeout), http.StatusGatewayTimeout},
		{fmt.Errorf("stage: %w", errs.ErrCanceled), transport.StatusClientClosedRequest},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		h := newHarness(t, scheduler.Options{Workers: 1})
		failErr := tc.err
		h.setExec(func(ctx context.Context, _ scheduler.JobRequest) (map[flow.ID]flow.Metrics, error) {
			return nil, failErr
		})
		id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
		h.waitState(id, "")
		if code, body := h.do("GET", "/jobs/"+id+"/result", nil); code != tc.want {
			t.Errorf("%v: result status %d, want %d (body %v)", tc.err, code, tc.want, body)
		}
	}
}

// TestGracefulShutdown: intake stops, queued jobs are canceled, the
// in-flight job drains to completion, and Shutdown returns clean.
func TestGracefulShutdown(t *testing.T) {
	s, err := scheduler.New(scheduler.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := serve(t, s)
	release := make(chan struct{})
	h.setExec(blockingExec(release))

	req := scheduler.JobRequest{Testcase: "aes_300"}
	running := h.submit(req)
	h.waitState(running, scheduler.StateRunning)
	queued := h.submit(req)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Intake closes immediately; health flips to 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := h.do("GET", "/healthz", nil)
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := h.do("POST", "/jobs", req); code != http.StatusServiceUnavailable {
		t.Errorf("submit during shutdown: status %d, want 503", code)
	}
	// The queued job was canceled without running.
	if st := h.waitState(queued, ""); st != scheduler.StateCanceled {
		t.Errorf("queued job %q at shutdown, want canceled", st)
	}

	// The in-flight job drains to a normal completion.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if st := h.state(running); st != scheduler.StateDone {
		t.Errorf("in-flight job finished %q, want done (drained)", st)
	}
}

// TestShutdownDeadlineAbortsInFlight: when the drain budget expires, the
// in-flight job's context is canceled and Shutdown reports the deadline.
func TestShutdownDeadlineAbortsInFlight(t *testing.T) {
	s, err := scheduler.New(scheduler.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := serve(t, s)
	release := make(chan struct{}) // never closed: the job only ends by cancel
	h.setExec(blockingExec(release))

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	h.waitState(id, scheduler.StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown returned %v, want DeadlineExceeded", err)
	}
	if st := h.state(id); st != scheduler.StateCanceled {
		t.Errorf("in-flight job %q after forced shutdown, want canceled", st)
	}
}

func TestStatsEndpoint(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	h.setExec(blockingExec(release))

	id := h.submit(scheduler.JobRequest{Testcase: "aes_300"})
	h.waitState(id, scheduler.StateRunning)

	code, body := h.do("GET", "/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var busy int
	if err := json.Unmarshal(body["busy_workers"], &busy); err != nil {
		t.Fatal(err)
	}
	if busy != 1 {
		t.Errorf("busy_workers = %d, want 1", busy)
	}
	var workers int
	if err := json.Unmarshal(body["workers"], &workers); err != nil {
		t.Fatal(err)
	}
	if workers != 2 {
		t.Errorf("workers = %d, want 2", workers)
	}
	close(release)
	h.waitState(id, scheduler.StateDone)

	// Latency percentiles appear once real flows complete; the stub records
	// none, so just assert the field decodes.
	_, body = h.do("GET", "/stats", nil)
	var lat map[string]scheduler.FlowLatency
	if err := json.Unmarshal(body["flow_latency"], &lat); err != nil {
		t.Fatalf("flow_latency malformed: %v", err)
	}
}

// TestListOrder: GET /jobs returns submission order.
func TestListOrder(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 8})
	release := make(chan struct{})
	defer close(release)
	h.setExec(blockingExec(release))

	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, h.submit(scheduler.JobRequest{Testcase: "aes_300"}))
	}
	code, body := h.do("GET", "/jobs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var views []scheduler.JobView
	if err := json.Unmarshal(body["jobs"], &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != len(want) {
		t.Fatalf("listed %d jobs, want %d", len(views), len(want))
	}
	for i := range views {
		if views[i].ID != want[i] {
			t.Errorf("list[%d] = %s, want %s", i, views[i].ID, want[i])
		}
	}
}
