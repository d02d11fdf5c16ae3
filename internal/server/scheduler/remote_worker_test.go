package scheduler_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/worker"
)

// remoteWorkerSched starts a coordinator whose only lane dispatches to a
// real worker handler over a loopback socket. exec, when non-nil, replaces
// the worker's flow execution.
func remoteWorkerSched(t *testing.T, exec func(context.Context, scheduler.JobRequest) (*scheduler.ExecResult, error)) *scheduler.Scheduler {
	t.Helper()
	h := worker.New(worker.Options{Slots: 2, DefaultSolver: "greedy"})
	if exec != nil {
		h.SetExec(exec)
	}
	wk := httptest.NewServer(h)
	t.Cleanup(wk.Close)
	s, err := scheduler.New(scheduler.Options{Remotes: []string{wk.URL}, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// waitJob polls a job to a terminal state and returns it.
func waitJob(t *testing.T, jb *scheduler.Job) scheduler.State {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st, _ := jb.Snapshot(); st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", jb.ID)
		}
	}
}

// TestRemotePanicCounted: a panic inside a remote worker's execution fails
// the job and counts in job_panics, exactly like a panic on any other lane.
func TestRemotePanicCounted(t *testing.T) {
	s := remoteWorkerSched(t, func(context.Context, scheduler.JobRequest) (*scheduler.ExecResult, error) {
		panic("remote solver ate a null pointer")
	})
	jb, err := s.Submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jb); st != scheduler.StateFailed {
		t.Fatalf("panicked remote job finished %q, want failed", st)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("Stats().Panics = %d after one remote panic, want 1", got)
	}
}

// TestRemoteFlowLatencyRecorded: /stats flow_latency counts the flows a
// remote lane ran, not only in-process ones.
func TestRemoteFlowLatencyRecorded(t *testing.T) {
	s := remoteWorkerSched(t, nil)
	jb, err := s.Submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{2, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, jb); st != scheduler.StateDone {
		t.Fatalf("remote job finished %q, want done", st)
	}
	lat := s.Stats().FlowLatency
	for _, id := range []flow.ID{flow.Flow2, flow.Flow5} {
		if got := lat[id.String()].Count; got < 1 {
			t.Errorf("flow_latency[%s].count = %d after a remote run, want >= 1 (have %v)", id, got, lat)
		}
	}
}
