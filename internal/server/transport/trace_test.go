package transport_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mthplace/internal/obs"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
)

const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// newTracedAPI builds a transport over a one-worker scheduler whose exec
// records one solver span, the minimum a merged trace needs.
func newTracedAPI(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := scheduler.New(scheduler.Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.SetExec(func(ctx context.Context, _ scheduler.JobRequest) (*scheduler.ExecResult, error) {
		sp := obs.StartSpan(ctx, "flow.solve")
		sp.End()
		return &scheduler.ExecResult{}, nil
	})
	srv := httptest.NewServer(transport.New(s).Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return srv
}

func submitTraced(t *testing.T, srv *httptest.Server, header string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
		strings.NewReader(`{"testcase":"aes_300","scale":0.02,"solver":"greedy"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set("traceparent", header)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc.ID
}

func waitDone(t *testing.T, srv *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			State   string `json:"state"`
			TraceID string `json:"trace_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == "done" {
			return
		}
		if v.State == "failed" || v.State == "canceled" {
			t.Fatalf("job %s finished %q", id, v.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTraceparentHeaderAdopted: a standard W3C traceparent header on submit
// joins the job to the client's trace — visible in the job view's trace_id
// and in every span of the merged timeline.
func TestTraceparentHeaderAdopted(t *testing.T) {
	srv := newTracedAPI(t)
	id := submitTraced(t, srv, clientTP)
	waitDone(t, srv, id)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("job trace_id = %q, want the header's", v.TraceID)
	}
}

// TestMalformedTraceparentIgnored: per the W3C spec a bad header must not
// fail the request; the job just gets a fresh trace.
func TestMalformedTraceparentIgnored(t *testing.T) {
	srv := newTracedAPI(t)
	id := submitTraced(t, srv, "00-zzzz-nope-01")
	waitDone(t, srv, id)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(v.TraceID) != 32 || v.TraceID == "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("job trace_id = %q, want a fresh 32-hex ID", v.TraceID)
	}
}

// TestTraceEndpointServesChromeJSON: GET /v1/jobs/{id}/trace returns the
// merged timeline as valid Chrome trace_event JSON containing the root job
// span, the dispatch span, the worker's execute span and the solver span
// under the client's trace.
func TestTraceEndpointServesChromeJSON(t *testing.T) {
	srv := newTracedAPI(t)
	id := submitTraced(t, srv, clientTP)
	waitDone(t, srv, id)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		seen[ev.Name] = true
		if ev.Phase == "X" || ev.Phase == "i" {
			if tid, _ := ev.Args["trace_id"].(string); tid != "0af7651916cd43dd8448eb211c80319c" {
				t.Errorf("event %q trace_id = %v, want the client's", ev.Name, ev.Args["trace_id"])
			}
		}
	}
	for _, want := range []string{"job", "dispatch", "execute", "flow.solve"} {
		if !seen[want] {
			t.Errorf("merged trace missing %q span (have %v)", want, seen)
		}
	}
}

// TestTraceEndpointUnknownJob404s covers both never-submitted IDs and the
// unversioned alias route.
func TestTraceEndpointUnknownJob404s(t *testing.T) {
	srv := newTracedAPI(t)
	for _, path := range []string{"/v1/jobs/nope/trace", "/jobs/nope/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}
