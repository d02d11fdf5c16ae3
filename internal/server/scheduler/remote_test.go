package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/flow"
	"mthplace/internal/journal"
	"mthplace/internal/obs"
)

// stubResult is the canned outcome a stub worker returns: a pure function
// of the request, so any lane (and any retry, on any lane) produces
// byte-identical metrics — which is how the chaos suite distinguishes a
// correct re-route from a double execution with divergent results.
func stubResult(req JobRequest) *ExecResult {
	_, ids, err := req.validate()
	if err != nil {
		return &ExecResult{}
	}
	out := &ExecResult{
		Metrics:    make(map[flow.ID]flow.Metrics, len(ids)),
		Placements: make(map[flow.ID]string, len(ids)),
	}
	for _, id := range ids {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d|%g|%d", req.Testcase, req.Seed, req.Scale, id)
		out.Metrics[id] = flow.Metrics{
			Flow:      id,
			HPWL:      int64(h.Sum64() % 1_000_000_000),
			SolveRung: "ilp",
			Solver:    "stub",
		}
		out.Placements[id] = fmt.Sprintf("stub-%s-%d-%d", req.Testcase, req.Seed, id)
	}
	return out
}

// Stub worker modes.
const (
	modeOK        = "ok"        // answer normally
	modeDead      = "dead"      // 500 on everything: a crashed process
	modePartition = "partition" // execute hangs until the request dies, pings fail
)

// stubWorker is a hand-rolled worker-protocol server for coordinator tests.
// Unlike WorkerHandler it fails in controllable ways: it dies, hangs,
// refuses with 503, or answers garbage on command.
type stubWorker struct {
	srv *httptest.Server

	mu          sync.Mutex
	mode        string
	busyLeft    int // 503 + Retry-After for this many more executes
	corruptLeft int // unparseable body for this many more executes
	failClass   string

	execs atomic.Int64
	pings atomic.Int64
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	w := &stubWorker{mode: modeOK}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+WorkerExecutePath, w.handleExecute)
	mux.HandleFunc("GET "+WorkerPingPath, w.handlePing)
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *stubWorker) URL() string { return w.srv.URL }

func (w *stubWorker) setMode(m string) {
	w.mu.Lock()
	w.mode = m
	w.mu.Unlock()
}

func (w *stubWorker) setBusy(n int)    { w.mu.Lock(); w.busyLeft = n; w.mu.Unlock() }
func (w *stubWorker) setCorrupt(n int) { w.mu.Lock(); w.corruptLeft = n; w.mu.Unlock() }
func (w *stubWorker) setFailClass(c string) {
	w.mu.Lock()
	w.failClass = c
	w.mu.Unlock()
}

func (w *stubWorker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	w.pings.Add(1)
	w.mu.Lock()
	mode := w.mode
	w.mu.Unlock()
	if mode != modeOK {
		http.Error(rw, "worker down", http.StatusInternalServerError)
		return
	}
	rw.Header().Set(WorkerTimeHeader, fmt.Sprintf("%d", time.Now().UnixMicro()))
	fmt.Fprintln(rw, "ok")
}

func (w *stubWorker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	w.execs.Add(1)
	// Drain the body before anything else: Go's server only notices a
	// client abort (and cancels r.Context()) once the request body has been
	// consumed, and the partition mode below relies on that cancellation.
	var wj WireJob
	decodeErr := json.NewDecoder(r.Body).Decode(&wj)
	w.mu.Lock()
	mode, failClass := w.mode, w.failClass
	busy, corrupt := w.busyLeft > 0, w.corruptLeft > 0
	if busy {
		w.busyLeft--
	} else if corrupt {
		w.corruptLeft--
	}
	w.mu.Unlock()
	switch mode {
	case modeDead:
		http.Error(rw, "worker down", http.StatusInternalServerError)
		return
	case modePartition:
		// The job was accepted but no answer ever comes back; the handler
		// unwinds only when the coordinator abandons the request.
		<-r.Context().Done()
		return
	}
	if busy {
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, "worker at capacity", http.StatusServiceUnavailable)
		return
	}
	if corrupt {
		rw.Header().Set("Content-Type", "application/json")
		_, _ = rw.Write([]byte(`{"metrics": garbage`))
		return
	}
	if decodeErr != nil {
		http.Error(rw, decodeErr.Error(), http.StatusBadRequest)
		return
	}
	var out WireResult
	if failClass != "" {
		out.Error = "stub failure"
		out.Class = failClass
	} else {
		res := stubResult(wj.Req)
		out.Metrics = res.Metrics
		out.Placements = res.Placements
	}
	// Like the real worker: a dispatch carrying trace context gets its
	// solver-stage span back, parented under the coordinator's dispatch span.
	if sc, ok := obs.ParseTraceparent(wj.Traceparent); ok {
		out.Spans = []obs.SpanRecord{{
			TraceID: sc.TraceID,
			SpanID:  obs.NewSpanID(),
			Parent:  sc.SpanID,
			Name:    "worker.solve",
			Kind:    "span",
			StartUS: time.Now().UnixMicro(),
			DurUS:   1,
		}}
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(out)
}

// remoteOptions are fast-converging fabric settings for tests: leases
// expire in tens of milliseconds, probes run every few milliseconds.
func remoteOptions(urls ...string) Options {
	return Options{
		Remotes:          urls,
		QueueDepth:       64,
		LeaseDuration:    60 * time.Millisecond,
		ProbeInterval:    4 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  20 * time.Millisecond,
		RetryBase:        time.Millisecond,
		RerouteMax:       6,
	}
}

// reqForLane finds a request the ring routes to the given lane, varying the
// seed. The search is deterministic, so tests can pin which stub worker
// first owns a job.
func reqForLane(t *testing.T, s *Scheduler, lane int) JobRequest {
	t.Helper()
	for seed := int64(1); seed <= 200; seed++ {
		req := JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: seed, Solver: "greedy"}
		if s.ring.pick(routingKey(s.instanceKeys(&req))) == lane {
			return req
		}
	}
	t.Fatalf("no seed in 1..200 routes to lane %d", lane)
	return JobRequest{}
}

// waitTerminal polls a job to any terminal state.
func waitTerminal(t *testing.T, jb *Job, within time.Duration) (State, error) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		st, err := jb.Snapshot()
		if st.Terminal() {
			return st, err
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", jb.ID, st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBreakerTransitions(t *testing.T) {
	var states []string
	b := newBreaker(2, 30*time.Millisecond, func(s string) { states = append(states, s) })
	if !b.allow() || b.State() != CircuitClosed {
		t.Fatal("new breaker should be closed and allowing")
	}
	b.failure()
	if b.State() != CircuitClosed {
		t.Fatal("one failure below threshold should not open the circuit")
	}
	b.failure()
	if b.State() != CircuitOpen {
		t.Fatal("threshold failures should open the circuit")
	}
	if b.allow() {
		t.Fatal("open circuit inside cooldown must refuse dispatches")
	}
	time.Sleep(35 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired cooldown should admit a half-open trial")
	}
	if b.State() != CircuitHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if b.allow() {
		t.Fatal("half-open admits exactly one trial at a time")
	}
	b.failure()
	if b.State() != CircuitOpen {
		t.Fatal("failed trial should re-open the circuit")
	}
	time.Sleep(35 * time.Millisecond)
	if !b.allow() {
		t.Fatal("second cooldown should admit another trial")
	}
	b.success()
	if b.State() != CircuitClosed || !b.allow() {
		t.Fatal("successful trial should close the circuit")
	}
	want := []string{CircuitClosed, CircuitOpen, CircuitHalfOpen, CircuitOpen, CircuitHalfOpen, CircuitClosed}
	if len(states) != len(want) {
		t.Fatalf("state transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state transitions = %v, want %v", states, want)
		}
	}
}

func TestErrorClassRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{errs.FromPanic("boom", "job"), ClassPanic},
		{errs.Infeasible("no fit"), ClassInfeasible},
		{fmt.Errorf("late: %w", errs.ErrTimeout), ClassTimeout},
		{fmt.Errorf("stop: %w", errs.ErrCanceled), ClassCanceled},
		{errs.Transient("flaky"), ClassTransient},
		{errors.New("plain"), ClassError},
	}
	sentinels := map[string]error{
		ClassPanic:      errs.ErrPanic,
		ClassInfeasible: errs.ErrInfeasible,
		ClassTimeout:    errs.ErrTimeout,
		ClassCanceled:   errs.ErrCanceled,
		ClassTransient:  errs.ErrTransient,
	}
	for _, c := range cases {
		class := ErrorClass(c.err)
		if class != c.want {
			t.Errorf("ErrorClass(%v) = %q, want %q", c.err, class, c.want)
		}
		rebuilt := errorFromClass(class, c.err.Error())
		if want, ok := sentinels[c.want]; ok && !errors.Is(rebuilt, want) {
			t.Errorf("errorFromClass(%q) lost the %q class: %v", class, c.want, rebuilt)
		}
	}
	// A panic that carried a transient payload must still class as a panic,
	// or the coordinator would retry a bug.
	mixed := fmt.Errorf("%w: %w", errs.ErrPanic, errs.ErrTransient)
	if got := ErrorClass(mixed); got != ClassPanic {
		t.Errorf("panic+transient classed %q, want %q", got, ClassPanic)
	}
	if errorFromClass("", "") != nil {
		t.Error("empty class should rebuild to nil")
	}
}

// TestRemoteExecuteEndToEnd: a coordinator with no local lanes dispatches
// over the wire, stores the worker's result, and surfaces the remote lane's
// health in Stats.
func TestRemoteExecuteEndToEnd(t *testing.T) {
	w := newStubWorker(t)
	s := newSched(t, remoteOptions(w.URL()))

	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: 7, Solver: "greedy"}
	jb, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, err := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done", st, err)
	}
	out, ok := s.Outcome(jb.ID)
	if !ok {
		t.Fatal("no outcome stored for remotely executed job")
	}
	want := stubResult(req)
	for id, m := range want.Metrics {
		if out.Metrics[id] != m {
			t.Errorf("flow %v metrics = %+v, want %+v", id, out.Metrics[id], m)
		}
		if out.Placements[id] != want.Placements[id] {
			t.Errorf("flow %v placement = %q, want %q", id, out.Placements[id], want.Placements[id])
		}
	}
	if v := jb.View(); v.Backend != "remote-0" || v.Reroutes != 0 {
		t.Errorf("view backend=%q reroutes=%d, want remote-0 / 0", v.Backend, v.Reroutes)
	}
	snap := s.Stats()
	if len(snap.Backends) != 1 {
		t.Fatalf("stats lists %d backends, want 1", len(snap.Backends))
	}
	bs := snap.Backends[0]
	if bs.Addr != w.URL() || bs.Circuit != CircuitClosed {
		t.Errorf("backend stat = %+v, want addr %s circuit closed", bs, w.URL())
	}
}

// TestRemoteJobFailureKeepsLaneHealthy: a typed failure reported by a
// healthy worker is the job's problem, not the lane's — the error class
// survives the wire and the circuit stays closed.
func TestRemoteJobFailureKeepsLaneHealthy(t *testing.T) {
	w := newStubWorker(t)
	w.setFailClass(ClassInfeasible)
	s := newSched(t, remoteOptions(w.URL()))

	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, jerr := waitTerminal(t, jb, 10*time.Second)
	if st != StateFailed || !errors.Is(jerr, errs.ErrInfeasible) {
		t.Fatalf("job finished %q (%v), want failed with ErrInfeasible", st, jerr)
	}
	snap := s.Stats()
	if snap.Backends[0].Circuit != CircuitClosed {
		t.Errorf("circuit = %s after a job-level failure, want closed", snap.Backends[0].Circuit)
	}
	if snap.Backends[0].DispatchFailures != 0 {
		t.Errorf("dispatch failures = %d after a job-level failure, want 0", snap.Backends[0].DispatchFailures)
	}
	if snap.Reroutes != 0 {
		t.Errorf("reroutes = %d, want 0", snap.Reroutes)
	}
}

// TestWorkerPartitionLeaseExpiresAndReroutes is the tentpole scenario: a
// worker accepts a job and goes silent mid-flight. The lease lapses, the
// job re-routes to the surviving worker, finishes exactly once with the
// same metrics an undisturbed run would produce, and the journal audit
// trail records the whole episode.
func TestWorkerPartitionLeaseExpiresAndReroutes(t *testing.T) {
	w0, w1 := newStubWorker(t), newStubWorker(t)
	dir := t.TempDir()
	opt := remoteOptions(w0.URL(), w1.URL())
	opt.JournalDir = dir
	// The partitioned worker's probes fail from setMode on, and Submit's
	// journal fsync can hold the job back for several probe intervals. With
	// the shared threshold of 2 the circuit could open before a dispatcher
	// took the job, which then left through a refused dispatch without ever
	// holding a lease. No probe run in this test reaches 1000 failures
	// (4 s against a job done within two leases), so only lease expiry can
	// move the job off remote-0.
	opt.BreakerThreshold = 1000
	s := newSched(t, opt)

	req := reqForLane(t, s, 0)
	w0.setMode(modePartition)

	jb, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, jerr := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done on the surviving worker", st, jerr)
	}
	v := jb.View()
	if v.Backend != "remote-1" {
		t.Errorf("job finished on %q, want remote-1", v.Backend)
	}
	if v.Reroutes < 1 {
		t.Errorf("view reroutes = %d, want >= 1", v.Reroutes)
	}
	out, ok := s.Outcome(jb.ID)
	if !ok {
		t.Fatal("no outcome stored")
	}
	want := stubResult(req)
	for id, m := range want.Metrics {
		if out.Metrics[id] != m {
			t.Errorf("flow %v metrics after re-route = %+v, want the undisturbed %+v", id, out.Metrics[id], m)
		}
	}
	snap := s.Stats()
	if snap.LeaseExpirations < 1 || snap.Reroutes < 1 {
		t.Errorf("stats lease_expirations=%d reroutes=%d, want both >= 1", snap.LeaseExpirations, snap.Reroutes)
	}

	// Release the partitioned attempt and let its zombie unwind before the
	// audit, so the exactly-once claim is tested, not raced.
	w0.setMode(modeOK)
	time.Sleep(20 * time.Millisecond)
	auditJournal(t, dir, map[string]string{jb.ID: journal.EventDone})
	entries, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var leased, expired, rerouted int
	for _, e := range entries {
		switch e.Event {
		case journal.EventLeased:
			leased++
			if e.Deadline == nil {
				t.Error("leased event lacks a deadline")
			}
		case journal.EventLeaseExpired:
			expired++
		case journal.EventRerouted:
			rerouted++
			if e.Backend != "remote-1" {
				t.Errorf("rerouted event names %q, want remote-1", e.Backend)
			}
		}
	}
	if leased < 2 || expired < 1 || rerouted < 1 {
		t.Errorf("journal: leased=%d expired=%d rerouted=%d, want >=2/>=1/>=1", leased, expired, rerouted)
	}
}

// auditJournal asserts the exactly-once contract on a journal directory:
// every listed job has exactly one submitted event and exactly one terminal
// event (of the expected flavor, "" for any).
func auditJournal(t *testing.T, dir string, jobs map[string]string) {
	t.Helper()
	entries, _, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	submitted := map[string]int{}
	terminal := map[string]int{}
	lastTerminal := map[string]string{}
	for _, e := range entries {
		switch e.Event {
		case journal.EventSubmitted:
			submitted[e.Job]++
		case journal.EventDone, journal.EventFailed, journal.EventCanceled:
			terminal[e.Job]++
			lastTerminal[e.Job] = e.Event
		}
	}
	for id, want := range jobs {
		if submitted[id] != 1 {
			t.Errorf("journal: job %s has %d submitted events, want exactly 1", id, submitted[id])
		}
		if terminal[id] != 1 {
			t.Errorf("journal: job %s has %d terminal events, want exactly 1 (double completion?)", id, terminal[id])
		}
		if want != "" && lastTerminal[id] != want {
			t.Errorf("journal: job %s terminal event = %q, want %q", id, lastTerminal[id], want)
		}
	}
}

// TestLapsedLeaseIsNotRenewable: a renewal landing after the lease
// deadline must not resurrect the lease. Without this rule a partition
// that heals while the old attempt's response path is still dead lets the
// renewal loop's now-successful pings keep the job leased — and the
// attempt hung — forever; with it, the lapsed lease stays expired for the
// monitor to re-route.
func TestLapsedLeaseIsNotRenewable(t *testing.T) {
	jb := &Job{state: StateRunning, epoch: 3}
	now := time.Now()
	if !jb.setLease(3, now.Add(30*time.Millisecond)) {
		t.Fatal("lease grant refused")
	}
	if !jb.renewLease(3, now, now.Add(60*time.Millisecond)) {
		t.Error("live lease with the right epoch refused renewal")
	}
	if jb.renewLease(2, now, now.Add(time.Hour)) {
		t.Error("stale epoch renewed the lease")
	}
	late := now.Add(time.Second)
	if jb.renewLease(3, late, late.Add(time.Hour)) {
		t.Error("lapsed lease was resurrected by a late renewal")
	}
	if _, expired := jb.leaseExpired(late); !expired {
		t.Error("lease not reported expired after the refused renewal")
	}
}

// TestLeaseExpiryWithNoLiveLaneFailsUnavailable: when every lane is gone,
// an expired lease fails the job with the backend-unavailability class (the
// 503 path), not the cancellation the monitor used to stop the attempt.
func TestLeaseExpiryWithNoLiveLaneFailsUnavailable(t *testing.T) {
	w := newStubWorker(t)
	s := newSched(t, remoteOptions(w.URL()))

	w.setMode(modePartition)
	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, jerr := waitTerminal(t, jb, 10*time.Second)
	if st != StateFailed {
		t.Fatalf("job finished %q (%v), want failed", st, jerr)
	}
	if !errors.Is(jerr, errs.ErrUnavailable) {
		t.Errorf("job error = %v, want ErrUnavailable", jerr)
	}
	if errors.Is(jerr, errs.ErrCanceled) {
		t.Errorf("job error = %v leaks the monitor's cancellation", jerr)
	}
	w.setMode(modeOK)
}

// TestBreakerEjectsDeadWorkerWithinWindow: the prober opens a dead lane's
// circuit within threshold × interval even with no traffic, traffic routed
// to the dead lane's keyspace spills onto the live lane, and a healed
// worker is readmitted by the next probe.
func TestBreakerEjectsDeadWorkerWithinWindow(t *testing.T) {
	w0, w1 := newStubWorker(t), newStubWorker(t)
	s := newSched(t, remoteOptions(w0.URL(), w1.URL()))

	w0.setMode(modeDead)
	waitCircuit(t, s, 0, CircuitOpen)

	// A job whose hash home is the dead lane must not be dispatched there:
	// submit routes by pure hash, the circuit-open dispatch re-routes.
	req := reqForLane(t, s, 0)
	jb, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, jerr := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done via the live lane", st, jerr)
	}
	if v := jb.View(); v.Backend != "remote-1" {
		t.Errorf("job finished on %q, want remote-1", v.Backend)
	}
	if got := w0.execs.Load(); got != 0 {
		t.Errorf("dead worker received %d dispatches, want 0 (circuit should short them)", got)
	}

	w0.setMode(modeOK)
	waitCircuit(t, s, 0, CircuitClosed)
	if s.Stats().Backends[0].HeartbeatRTTms <= 0 {
		t.Error("readmitted lane reports no heartbeat RTT")
	}
}

// waitCircuit polls Stats until lane idx reports the wanted circuit state.
func waitCircuit(t *testing.T, s *Scheduler, idx int, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats().Backends[idx].Circuit; st == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lane %d circuit stuck in %q, want %q", idx, s.Stats().Backends[idx].Circuit, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCorruptResponseRetriedOnLane: a single corrupted response is a
// transient transport failure — the scheduler's backoff retries it on the
// same lane and the job completes without a re-route.
func TestCorruptResponseRetriedOnLane(t *testing.T) {
	w := newStubWorker(t)
	s := newSched(t, remoteOptions(w.URL()))

	restore := fault.Install(fault.NewPlan(fault.Rule{Point: FaultDispatch, Kind: fault.KindCorrupt, Hit: 1}))
	defer restore()

	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, jerr := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done after one retry", st, jerr)
	}
	v := jb.View()
	if v.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (corrupt first, clean retry)", v.Attempts)
	}
	if v.Reroutes != 0 {
		t.Errorf("reroutes = %d, want 0 (same-lane retry)", v.Reroutes)
	}
	if snap := s.Stats(); snap.Backends[0].DispatchFailures != 1 {
		t.Errorf("dispatch failures = %d, want 1", snap.Backends[0].DispatchFailures)
	}
}

// TestWorkerBusyBacksOffThenLands: 503 + Retry-After from a worker at
// capacity is transient; the dispatch retries and lands.
func TestWorkerBusyBacksOffThenLands(t *testing.T) {
	w := newStubWorker(t)
	w.setBusy(1)
	s := newSched(t, remoteOptions(w.URL()))

	jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, jerr := waitTerminal(t, jb, 10*time.Second); st != StateDone {
		t.Fatalf("job finished %q (%v), want done", st, jerr)
	}
	if v := jb.View(); v.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", v.Attempts)
	}
}

// TestReplayIgnoresRecordedLaneAfterTopologyChange is the negative replay
// test: the journal records a lane ("remote-3") that does not exist in the
// restarted topology. Replay must route through the live ring and run the
// job on a real lane instead of mis-routing or wedging.
func TestReplayIgnoresRecordedLaneAfterTopologyChange(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "greedy"}
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
		{Seq: 1, Job: "job-1", Event: journal.EventSubmitted, Request: raw, Backend: "remote-3"},
		{Seq: 1, Job: "job-1", Event: journal.EventStarted},
		{Seq: 1, Job: "job-1", Event: journal.EventLeased, Backend: "remote-3", Deadline: &deadline},
	} {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with two local lanes and zero remotes: "remote-3" is gone.
	s := newSched(t, Options{Workers: 1, Backends: 2, JournalDir: dir})
	jb := s.Job("job-1")
	if jb == nil {
		t.Fatal("replayed job not found")
	}
	if st, jerr := waitTerminal(t, jb, 60*time.Second); st != StateDone {
		t.Fatalf("replayed job finished %q (%v), want done", st, jerr)
	}
	v := jb.View()
	if !v.Replayed {
		t.Error("job does not report replayed")
	}
	wantLane := s.backends[s.ring.pick(routingKey(s.instanceKeys(&req)))].Name()
	if v.Backend != wantLane {
		t.Errorf("replayed job ran on %q, want the live ring's %q", v.Backend, wantLane)
	}
	if v.Backend == "remote-3" {
		t.Error("replayed job kept the journal's dead lane")
	}
}

// TestShutdownWithRemotesLeaksNoGoroutines: dispatchers, prober, lease
// monitor and renewal loops must all unwind on Shutdown.
func TestShutdownWithRemotesLeaksNoGoroutines(t *testing.T) {
	w := newStubWorker(t)
	before := runtime.NumGoroutine()

	s, err := New(remoteOptions(w.URL()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: int64(i + 1), Solver: "greedy"})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitTerminal(t, jb, 10*time.Second)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return // small slack for runtime/httptest housekeeping
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after shutdown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentSubmitStatsViews hammers intake, stats and views from many
// goroutines at once; it asserts nothing beyond "no race, no panic" and
// exists for the -race run.
func TestConcurrentSubmitStatsViews(t *testing.T) {
	w := newStubWorker(t)
	opt := remoteOptions(w.URL())
	opt.Backends = 1
	opt.Workers = 2
	s := newSched(t, opt)
	s.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		return stubResult(req), nil
	})

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				jb, err := s.Submit(JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: int64(g*100 + i + 1), Solver: "greedy"})
				if err != nil {
					continue // queue full under pressure is fine
				}
				if i%5 == 0 {
					s.Cancel(jb.ID)
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = s.Stats()
					_ = s.Views()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Drain everything submitted so Cleanup's Shutdown is quick.
	deadline := time.Now().Add(30 * time.Second)
	for {
		done := true
		for _, v := range s.Views() {
			if !v.State.Terminal() {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs stuck after concurrent hammering")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
