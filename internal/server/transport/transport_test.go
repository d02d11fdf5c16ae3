package transport_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
)

// newBackpressuredAPI builds a transport over a scheduler whose single
// worker is wedged on a blocking exec, so the queue fills deterministically.
// Returns the test server and a release function.
func newBackpressuredAPI(t *testing.T, opt scheduler.Options) (*httptest.Server, func()) {
	t.Helper()
	s, err := scheduler.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s.SetExec(func(ctx context.Context, _ scheduler.JobRequest) (*scheduler.ExecResult, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &scheduler.ExecResult{}, nil
	})
	srv := httptest.NewServer(transport.New(s).Handler())
	var once bool
	release := func() {
		if !once {
			once = true
			close(block)
		}
	}
	t.Cleanup(func() {
		release()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return srv, release
}

func submitJob(t *testing.T, srv *httptest.Server) *http.Response {
	t.Helper()
	body := `{"testcase":"aes_300","scale":0.02,"solver":"greedy"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestQueueFullCarriesRetryAfter fills a one-worker, one-slot queue and
// verifies the 429 rejection carries the Retry-After pacing hint clients
// key off.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	srv, _ := newBackpressuredAPI(t, scheduler.Options{Workers: 1, QueueDepth: 1})

	// One job wedges the worker, one fills the queue slot; the rest must
	// bounce. Allow a couple of accepts for the handoff race between the
	// queue and the worker claiming its first job.
	var rejected *http.Response
	for i := 0; i < 6; i++ {
		resp := submitJob(t, srv)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202 or 429", i, resp.StatusCode)
		}
	}
	if rejected == nil {
		t.Fatal("queue never filled: no 429 seen in 6 submissions")
	}
	if got := rejected.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rejected.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("429 body should carry an error message (err=%v, body=%+v)", err, e)
	}
}

// TestResultBeforeTerminalCarriesRetryAfter verifies polling a running
// job's result answers 409 with the same pacing hint.
func TestResultBeforeTerminalCarriesRetryAfter(t *testing.T) {
	srv, release := newBackpressuredAPI(t, scheduler.Options{Workers: 1, QueueDepth: 4})

	resp := submitJob(t, srv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var v scheduler.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}

	rr, err := http.Get(srv.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusConflict {
		t.Fatalf("result while running: status %d, want 409", rr.StatusCode)
	}
	if got := rr.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	release()
}

// TestShutdownRejectsWith503RetryAfter verifies submissions during
// shutdown get 503 plus the hint, so clients re-aim rather than abort.
func TestShutdownRejectsWith503RetryAfter(t *testing.T) {
	s, err := scheduler.New(scheduler.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(transport.New(s).Handler())
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"testcase":"aes_300","scale":0.02,"solver":"greedy"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: status %d, want 503 (%s)", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}
