package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"mthplace/internal/journal"
	"mthplace/internal/obs"
)

// clientTP is a fixed, valid W3C traceparent standing in for an upstream
// caller's span.
const clientTP = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// traceTopology indexes a job's span records for structural assertions.
type traceTopology struct {
	recs    []obs.SpanRecord
	byID    map[string]obs.SpanRecord
	roots   []obs.SpanRecord // "job" spans
	orphans []obs.SpanRecord // non-empty parent that no local span resolves
}

func topo(t *testing.T, recs []obs.SpanRecord) traceTopology {
	t.Helper()
	tt := traceTopology{recs: recs, byID: map[string]obs.SpanRecord{}}
	for _, r := range recs {
		if r.SpanID != "" {
			tt.byID[r.SpanID] = r
		}
	}
	for _, r := range recs {
		if r.Name == "job" {
			tt.roots = append(tt.roots, r)
		}
	}
	rootParent := ""
	if len(tt.roots) > 0 {
		rootParent = tt.roots[0].Parent
	}
	for _, r := range recs {
		if r.Parent == "" || r.Parent == rootParent {
			continue // top-level, or parented under the external client span
		}
		if _, ok := tt.byID[r.Parent]; !ok {
			tt.orphans = append(tt.orphans, r)
		}
	}
	return tt
}

// TestTraceLifecycleLocal: a job run on an in-process lane, submitted with
// a client traceparent, yields one merged timeline of the same shape as a
// remote job's — a single "job" root parented under the client's span, a
// dispatch span under the root, the worker's execute span under that and
// the flow spans under execute on the lane's track, and every record
// sharing the client's TraceID.
func TestTraceLifecycleLocal(t *testing.T) {
	s := newSched(t, Options{Workers: 1})
	s.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		// A span from inside execution, as flow stages would record.
		sp := obs.StartSpan(ctx, "flow.solve")
		sp.End()
		return stubResult(req), nil
	})
	jb := submitWait(t, s, JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy", Traceparent: clientTP})

	if got := jb.TraceID(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("job trace ID = %q, want the client's", got)
	}
	if v := jb.View(); v.TraceID != jb.TraceID() {
		t.Errorf("view trace ID %q != job trace ID %q", v.TraceID, jb.TraceID())
	}
	recs := s.TraceRecords(jb.ID)
	tt := topo(t, recs)
	if len(tt.roots) != 1 {
		t.Fatalf("got %d root job spans, want 1 (records: %+v)", len(tt.roots), recs)
	}
	root := tt.roots[0]
	if root.Parent != "b7ad6b7169203331" {
		t.Errorf("root parent = %q, want the client span", root.Parent)
	}
	if root.DurUS <= 0 {
		t.Errorf("root span has no duration: %+v", root)
	}
	if len(tt.orphans) != 0 {
		t.Errorf("orphan spans: %+v", tt.orphans)
	}
	var dispatch, execute, solve bool
	dispatches := 0
	for _, r := range recs {
		if r.TraceID != root.TraceID {
			t.Errorf("record %q has trace %q, want %q", r.Name, r.TraceID, root.TraceID)
		}
		switch r.Name {
		case "dispatch":
			dispatch = true
			dispatches++
			if r.Parent != root.SpanID {
				t.Errorf("dispatch parented under %q, want root %q", r.Parent, root.SpanID)
			}
		case "execute":
			execute = true
			if tt.byID[r.Parent].Name != "dispatch" {
				t.Errorf("execute parented under %q, want the dispatch span", tt.byID[r.Parent].Name)
			}
		case "flow.solve":
			solve = true
			if tt.byID[r.Parent].Name != "execute" {
				t.Errorf("flow.solve parented under %q, want the execute span", tt.byID[r.Parent].Name)
			}
		}
		if (r.Name == "execute" || r.Name == "flow.solve") && r.Proc != "local-0" {
			t.Errorf("%s span on track %q, want the lane's (local-0)", r.Name, r.Proc)
		}
	}
	if !dispatch || !execute || !solve {
		t.Errorf("missing spans: dispatch=%v execute=%v flow.solve=%v in %+v", dispatch, execute, solve, recs)
	}
	if dispatches != 1 {
		t.Errorf("one attempt recorded %d dispatch spans, want 1", dispatches)
	}

	// The merged export must be valid Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, s.TraceRecords(jb.ID)); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(recs) {
		t.Errorf("export has %d events for %d records", len(doc.TraceEvents), len(recs))
	}
}

// TestTraceRemoteMerge: a remotely executed job's merged trace contains the
// worker's solver span, lane-labelled and parented under the coordinator's
// dispatch span, sharing one TraceID end to end.
func TestTraceRemoteMerge(t *testing.T) {
	w := newStubWorker(t)
	s := newSched(t, remoteOptions(w.URL()))
	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy", Traceparent: clientTP})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, jerr := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done", st, jerr)
	}
	recs := s.TraceRecords(jb.ID)
	tt := topo(t, recs)
	if len(tt.roots) != 1 {
		t.Fatalf("got %d root spans, want 1", len(tt.roots))
	}
	if len(tt.orphans) != 0 {
		t.Errorf("orphan spans: %+v", tt.orphans)
	}
	var worker *obs.SpanRecord
	for i, r := range recs {
		if r.Name == "worker.solve" {
			worker = &recs[i]
		}
	}
	if worker == nil {
		t.Fatalf("no worker span in merged trace: %+v", recs)
	}
	if worker.Proc != "remote-0" {
		t.Errorf("worker span proc = %q, want the lane name", worker.Proc)
	}
	if worker.TraceID != jb.TraceID() {
		t.Errorf("worker span trace %q, want %q", worker.TraceID, jb.TraceID())
	}
	if parent, ok := tt.byID[worker.Parent]; !ok || parent.Name != "dispatch" {
		t.Errorf("worker span parented under %q (%s), want the dispatch span", worker.Parent, parent.Name)
	}
}

// TestTraceCacheHit: a cache-served job still gets a closed timeline — root
// span flagged cache_hit plus a cache_hit instant — under the client trace.
func TestTraceCacheHit(t *testing.T) {
	s := newSched(t, Options{Workers: 1, CacheEntries: 16})
	s.SetExec(func(_ context.Context, req JobRequest) (*ExecResult, error) { return stubResult(req), nil })
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"}
	submitWait(t, s, req)
	req.Traceparent = clientTP
	warm := submitWait(t, s, req)
	if !warm.View().CacheHit {
		t.Fatal("second submission was not a cache hit")
	}
	recs := s.TraceRecords(warm.ID)
	tt := topo(t, recs)
	if len(tt.roots) != 1 {
		t.Fatalf("cache hit recorded %d root spans, want 1 (%+v)", len(tt.roots), recs)
	}
	if hit, _ := tt.roots[0].Args["cache_hit"].(bool); !hit {
		t.Errorf("root span args lack cache_hit: %+v", tt.roots[0].Args)
	}
	var instant bool
	for _, r := range recs {
		if r.Name == "cache_hit" && r.Kind == "instant" {
			instant = true
			if r.Parent != tt.roots[0].SpanID {
				t.Errorf("cache_hit instant parented under %q, want root", r.Parent)
			}
		}
	}
	if !instant {
		t.Errorf("no cache_hit instant in %+v", recs)
	}
}

// TestInflightExactAfterRequeueCancel is the accounting regression test: a
// job that started, was re-queued off its lane (as a reroute or lease
// expiry does), and was then canceled while Queued must still count exactly
// one finish — previously this path leaked jobs_inflight forever.
func TestInflightExactAfterRequeueCancel(t *testing.T) {
	s := newSched(t, Options{Workers: 1, RerouteMax: 4})
	release := make(chan struct{})
	s.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stubResult(req), nil
	})
	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := jb.Snapshot(); st == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Force the job back to Queued under the running attempt's epoch, the
	// way the lease monitor strands it mid-reroute.
	if _, ok := jb.requeue(1, 4); !ok {
		t.Fatal("requeue refused")
	}
	if _, ok := s.Cancel(jb.ID); !ok {
		t.Fatal("cancel refused")
	}
	close(release)
	// The abandoned attempt must drain without committing anything.
	time.Sleep(20 * time.Millisecond)

	snap := s.Stats()
	if snap.Started != 1 || snap.Finished != 1 || snap.Inflight != 0 {
		t.Errorf("started=%d finished=%d inflight=%d, want 1/1/0",
			snap.Started, snap.Finished, snap.Inflight)
	}
	tt := topo(t, s.TraceRecords(jb.ID))
	if len(tt.roots) != 1 {
		t.Errorf("canceled-while-requeued job recorded %d root spans, want 1", len(tt.roots))
	}
}

// TestLaneMetricsAgreeAfterReplayReroute is the satellite regression pin:
// after a journal replay whose job reroutes from a dead lane to a live one,
// jobs_inflight (started−finished) must be zero and every lane's request
// counter must equal its latency-histogram count — one recordLaneAttempt
// per attempt, whatever path the attempt exits through.
func TestLaneMetricsAgreeAfterReplayReroute(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy", Traceparent: clientTP}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for _, e := range []journal.Entry{
		{Seq: 1, Job: "job-1", Event: journal.EventSubmitted, Request: raw, Backend: "remote-0", Trace: "0af7651916cd43dd8448eb211c80319c"},
		{Seq: 1, Job: "job-1", Event: journal.EventStarted},
		{Seq: 1, Job: "job-1", Event: journal.EventLeased, Backend: "remote-0", Deadline: &deadline},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	dead := newStubWorker(t)
	dead.setMode(modePartition)
	live := newStubWorker(t)
	opt := remoteOptions(dead.URL(), live.URL())
	opt.JournalDir = dir
	s := newSched(t, opt)
	jb := s.Job("job-1")
	if jb == nil {
		t.Fatal("replayed job not found")
	}
	if got := jb.TraceID(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("replayed job trace %q, want the journaled request's", got)
	}
	if st, _ := waitTerminal(t, jb, 30*time.Second); !st.Terminal() {
		t.Fatalf("replayed job stuck in %q", st)
	}

	// The finish counter lands moments after the state flips terminal; poll
	// briefly rather than racing it.
	var snap StatsSnapshot
	agreeBy := time.Now().Add(5 * time.Second)
	for {
		snap = s.Stats()
		if snap.Inflight == 0 && snap.Started == snap.Finished {
			break
		}
		if time.Now().After(agreeBy) {
			t.Errorf("started=%d finished=%d inflight=%d after replay, want equal and 0",
				snap.Started, snap.Finished, snap.Inflight)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, b := range s.backends {
		var reqs int64
		for _, outcome := range []string{"ok", "error", "rerouted"} {
			reqs += s.laneRequests(b.Name(), outcome).Value()
		}
		if hist := s.laneSeconds(b.Name()).Count(); hist != reqs {
			t.Errorf("lane %s: %d requests vs %d histogram observations, want equal",
				b.Name(), reqs, hist)
		}
	}
}
