package mth

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
)

// newService boots a real placement service (cache on) behind httptest and
// returns a client for it.
func newService(t *testing.T, opts ...ClientOption) *Client {
	t.Helper()
	s, err := scheduler.New(scheduler.Options{Workers: 2, QueueDepth: 8, CacheEntries: 32, DefaultSolver: "greedy"})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(transport.New(s).Handler())
	t.Cleanup(func() {
		web.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return NewClient(web.URL+"/", opts...) // trailing slash must be tolerated
}

func TestClientSubmitWaitResult(t *testing.T) {
	c := newService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	v, err := c.Submit(ctx, JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.ID == "" || v.State != JobQueued && v.State != JobRunning && v.State != JobDone {
		t.Fatalf("submit view = %+v", v)
	}
	res, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Metrics["5"].HPWL <= 0 {
		t.Errorf("metrics not populated: %+v", res.Metrics)
	}
	if res.Placements["5"] == "" {
		t.Errorf("placement digest missing: %+v", res.Placements)
	}
	if res.CacheHit {
		t.Error("cold solve reported a cache hit")
	}

	// An identical resubmission is served from the cache, bit-identically.
	v2, err := c.Submit(ctx, JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !v2.CacheHit {
		t.Error("resubmission did not hit the cache")
	}
	res2, err := c.Wait(ctx, v2.ID)
	if err != nil {
		t.Fatalf("Wait(hit): %v", err)
	}
	if !res2.CacheHit || res2.Metrics["5"] != res.Metrics["5"] || res2.Placements["5"] != res.Placements["5"] {
		t.Errorf("cached result diverges:\n cold %+v %v\n warm %+v %v",
			res.Metrics["5"], res.Placements["5"], res2.Metrics["5"], res2.Placements["5"])
	}
}

func TestClientBatch(t *testing.T) {
	c := newService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	slots, err := c.SubmitBatch(ctx, []JobRequest{
		{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}},
		{Testcase: "aes_300", Scale: 0.02, Flows: []int{1}},
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(slots) != 2 {
		t.Fatalf("batch returned %d slots, want 2", len(slots))
	}
	for i, slot := range slots {
		if slot.Job == nil {
			t.Fatalf("slot %d rejected: %s", i, slot.Error)
		}
		if _, err := c.Wait(ctx, slot.Job.ID); err != nil {
			t.Errorf("slot %d wait: %v", i, err)
		}
	}

	// A uniformly invalid batch is an *APIError carrying the 400.
	if _, err := c.SubmitBatch(ctx, []JobRequest{{Testcase: "nope"}}); err == nil {
		t.Error("invalid batch accepted")
	} else {
		var ae *APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("invalid batch error = %v, want APIError 400", err)
		}
	}
}

func TestClientCacheOff(t *testing.T) {
	c := newService(t, WithCacheOff())
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}}
	v1, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, v1.ID); err != nil {
		t.Fatal(err)
	}
	v2, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if v2.CacheHit {
		t.Error("cache-off client was served from cache")
	}
}

func TestClientErrorsAndCancel(t *testing.T) {
	c := newService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var ae *APIError
	if _, err := c.Status(ctx, "job-999"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Errorf("missing job error = %v, want APIError 404", err)
	}
	if _, err := c.Submit(ctx, JobRequest{}); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Errorf("empty submit error = %v, want APIError 400", err)
	}

	// Park a victim behind blockers occupying both workers, cancel it while
	// queued; Wait reports the canceled terminal state as an error.
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, JobRequest{Testcase: "aes_300", Scale: 0.5, Flows: []int{5}, Cache: "off"}); err != nil {
			t.Fatalf("blocker %d: %v", i, err)
		}
	}
	v, err := c.Submit(ctx, JobRequest{Testcase: "aes_300", Scale: 0.4, Flows: []int{5}, Cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if _, err := c.Wait(ctx, v.ID); err == nil {
		t.Error("Wait on canceled job returned success")
	}
}
