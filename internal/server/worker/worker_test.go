package worker_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/worker"
)

func newWorkerServer(t *testing.T, opt worker.Options, exec scheduler.ExecFunc) (*worker.Handler, *httptest.Server) {
	t.Helper()
	h := worker.New(opt)
	if exec != nil {
		h.SetExec(exec)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return h, srv
}

func execute(t *testing.T, srv *httptest.Server, wj scheduler.WireJob) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+scheduler.WorkerExecutePath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestWorkerExecuteSuccess(t *testing.T) {
	want := &scheduler.ExecResult{
		Metrics:    map[flow.ID]flow.Metrics{0: {HPWL: 4242, SolveRung: "ilp", Solver: "stub"}},
		Placements: map[flow.ID]string{0: "deadbeef"},
	}
	var got scheduler.JobRequest
	_, srv := newWorkerServer(t, worker.Options{}, func(_ context.Context, req scheduler.JobRequest) (*scheduler.ExecResult, error) {
		got = req
		return want, nil
	})

	resp, raw := execute(t, srv, scheduler.WireJob{
		ID:  "job-1",
		Req: scheduler.JobRequest{Testcase: "aes_300", Seed: 7, Scale: 0.25, Solver: "greedy"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%s)", resp.StatusCode, raw)
	}
	if got.Testcase != "aes_300" || got.Seed != 7 {
		t.Fatalf("exec saw request %+v, want the dispatched one", got)
	}
	var wr scheduler.WireResult
	if err := json.Unmarshal(raw, &wr); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if wr.Error != "" || wr.Class != "" {
		t.Fatalf("unexpected error in result: %q (class %q)", wr.Error, wr.Class)
	}
	if wr.Metrics[0] != want.Metrics[0] || wr.Placements[0] != want.Placements[0] {
		t.Fatalf("result round-trip mangled payload: %+v", wr)
	}
}

func TestWorkerAtCapacityRefusesWithRetryAfter(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	_, srv := newWorkerServer(t, worker.Options{Slots: 1}, func(ctx context.Context, _ scheduler.JobRequest) (*scheduler.ExecResult, error) {
		started <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &scheduler.ExecResult{}, nil
	})
	defer close(block)

	hog, _ := json.Marshal(scheduler.WireJob{ID: "hog", Req: scheduler.JobRequest{Testcase: "aes_300"}})
	go func() {
		resp, err := http.Post(srv.URL+scheduler.WorkerExecutePath, "application/json", strings.NewReader(string(hog)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("first dispatch never reached exec")
	}

	resp, raw := execute(t, srv, scheduler.WireJob{ID: "spill", Req: scheduler.JobRequest{Testcase: "aes_300"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

func TestWorkerErrorClassTravels(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"infeasible", errs.Infeasible("track budget exceeded"), scheduler.ClassInfeasible},
		{"transient", errs.Transient("solver wobble"), scheduler.ClassTransient},
		{"plain", errors.New("something opaque"), scheduler.ClassError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newWorkerServer(t, worker.Options{}, func(context.Context, scheduler.JobRequest) (*scheduler.ExecResult, error) {
				return nil, tc.err
			})
			resp, raw := execute(t, srv, scheduler.WireJob{ID: "job-e", Req: scheduler.JobRequest{Testcase: "aes_300"}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200 — job errors ride the WireResult, not HTTP", resp.StatusCode)
			}
			var wr scheduler.WireResult
			if err := json.Unmarshal(raw, &wr); err != nil {
				t.Fatal(err)
			}
			if wr.Error == "" {
				t.Fatal("error did not travel")
			}
			if wr.Class != tc.want {
				t.Fatalf("class = %q, want %q", wr.Class, tc.want)
			}
		})
	}
}

func TestWorkerPanicBecomesPanicClass(t *testing.T) {
	_, srv := newWorkerServer(t, worker.Options{}, func(context.Context, scheduler.JobRequest) (*scheduler.ExecResult, error) {
		panic("solver exploded")
	})
	resp, raw := execute(t, srv, scheduler.WireJob{ID: "job-p", Req: scheduler.JobRequest{Testcase: "aes_300"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 — the recover boundary must answer, not crash", resp.StatusCode)
	}
	var wr scheduler.WireResult
	if err := json.Unmarshal(raw, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Class != scheduler.ClassPanic {
		t.Fatalf("class = %q, want %q (error %q)", wr.Class, scheduler.ClassPanic, wr.Error)
	}
	if !strings.Contains(wr.Error, "solver exploded") {
		t.Fatalf("panic payload lost: %q", wr.Error)
	}

	// The worker survives to serve the next job.
	resp2, _ := http.Get(srv.URL + scheduler.WorkerPingPath)
	if resp2 == nil || resp2.StatusCode != http.StatusOK {
		t.Fatal("worker did not survive the panic")
	}
	resp2.Body.Close()
}

func TestWorkerBadBodyIsBadRequest(t *testing.T) {
	_, srv := newWorkerServer(t, worker.Options{}, nil)
	resp, err := http.Post(srv.URL+scheduler.WorkerExecutePath, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestWorkerPing(t *testing.T) {
	_, srv := newWorkerServer(t, worker.Options{}, nil)
	resp, err := http.Get(srv.URL + scheduler.WorkerPingPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(raw)) != "ok" {
		t.Fatalf("ping = %d %q, want 200 \"ok\"", resp.StatusCode, raw)
	}
}

func TestWorkerMetricsCount(t *testing.T) {
	h, srv := newWorkerServer(t, worker.Options{}, func(context.Context, scheduler.JobRequest) (*scheduler.ExecResult, error) {
		return nil, errs.Infeasible("nope")
	})
	execute(t, srv, scheduler.WireJob{ID: "m1", Req: scheduler.JobRequest{Testcase: "aes_300"}})
	execute(t, srv, scheduler.WireJob{ID: "m2", Req: scheduler.JobRequest{Testcase: "aes_300"}})

	ms := httptest.NewServer(h.MetricsHandler())
	defer ms.Close()
	resp, err := http.Get(ms.URL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{"worker_jobs_total 2", "worker_job_errors_total 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}
