package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/pkg/mth"
)

// TestConsoleAgainstLiveService renders a frame from a real coordinator —
// scheduler plus HTTP transport — rather than a stub, so the console and
// the service cannot drift apart on /stats, /v1/jobs or /metrics.
func TestConsoleAgainstLiveService(t *testing.T) {
	sched, err := scheduler.New(scheduler.Options{
		Workers: 1, Backends: 1, DefaultSolver: "greedy", CacheEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(transport.New(sched).Handler())
	defer web.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := mth.NewClient(web.URL)
	job, err := cl.Submit(ctx, mth.JobRequest{Testcase: "aes_300", Flows: []int{5}, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	// The finish counter lands moments after the job turns terminal.
	for sched.Stats().Finished < 1 {
		if ctx.Err() != nil {
			t.Fatal("finish counter never reached 1")
		}
		time.Sleep(2 * time.Millisecond)
	}

	f, err := newClient(web.URL).fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, f, 8)
	out := b.String()

	view := sched.Job(job.ID).View()
	st := sched.Stats()
	for _, want := range []string{
		"local-0",
		"finished 1",
		job.ID,
		view.TraceID,
		fmt.Sprintf("queue %d/%d  inflight %d", st.QueueDepth, st.QueueCapacity, st.Inflight),
		fmt.Sprintf("started %d  finished %d  degraded %d  retries %d  reroutes %d  lease-exp %d  panics %d",
			st.Started, st.Finished, st.Degraded, st.Retries, st.Reroutes, st.LeaseExpirations, st.Panics),
		fmt.Sprintf("cache   %d/%d entries  hits %d  misses %d",
			st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses),
	} {
		if want == "" || !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}
