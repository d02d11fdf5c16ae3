// Remote execution lane: a Backend that dispatches jobs over HTTP to a
// peer mthserved process running in -worker mode. The lane looks exactly
// like Local to the scheduler — a bounded queue drained by a fixed set of
// dispatcher goroutines — but each dispatcher ships the job's request to
// the worker and waits for the WireResult instead of running flows itself.
//
// Failure handling lives in three places with sharp boundaries:
//
//   - transport-level trouble (connection refused, truncated or corrupt
//     response, worker 503) is classed errs.ErrTransient + ErrUnavailable,
//     so the scheduler's existing backoff retries it a few times and then
//     re-routes the job through the ring (runJobOn);
//   - job-level failures reported by a healthy worker (infeasible, panic,
//     timeout) are rebuilt as the same typed errors a local run would have
//     produced, and never count against the lane's health;
//   - lane-level health is a circuit breaker fed by dispatch outcomes and
//     a heartbeat prober, so a dead worker is ejected from routing within
//     a bounded window and readmitted only after a probe succeeds.
package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/obs"
)

// Fault-point names at the remote-dispatch network boundary.
const (
	// FaultDispatch governs Remote.Execute: refuse fails the dispatch
	// before any bytes are sent, drop truncates the response mid-body,
	// corrupt mangles the response bytes, error/latency/panic behave as at
	// any other point.
	FaultDispatch = "remote.dispatch"
	// FaultHeartbeat governs the prober and lease-renewal pings; any armed
	// kind fails the probe.
	FaultHeartbeat = "remote.heartbeat"
)

// Circuit-breaker states, exported through /stats and the
// backend_circuit_state metric (by numeric value).
const (
	CircuitClosed   = "closed"
	CircuitOpen     = "open"
	CircuitHalfOpen = "half-open"
)

// breaker is a per-lane circuit breaker. Dispatch failures accumulate; at
// threshold the circuit opens and the lane reports itself dead, which both
// short-circuits Execute and removes the lane from re-route candidacy.
// After cooldown the next allow() admits a single half-open trial; its
// outcome closes or re-opens the circuit. The prober bypasses allow — it
// is the healer: a probe success closes the circuit outright, so a
// recovered worker is readmitted within one probe interval regardless of
// traffic.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	failures  int
	state     string
	openedAt  time.Time
	trial     bool // a half-open trial is in flight
	onState   func(string)
}

func newBreaker(threshold int, cooldown time.Duration, onState func(string)) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	b := &breaker{threshold: threshold, cooldown: cooldown, state: CircuitClosed, onState: onState}
	b.note()
	return b
}

// note reports the current state to the gauge hook; callers hold b.mu (or
// have exclusive access, as in newBreaker).
func (b *breaker) note() {
	if b.onState != nil {
		b.onState(b.state)
	}
}

// allow reports whether a dispatch may proceed, transitioning open →
// half-open once the cooldown has elapsed (admitting exactly one trial).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case CircuitClosed:
		return true
	case CircuitOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = CircuitHalfOpen
		b.trial = true
		b.note()
		return true
	default: // half-open: one trial at a time
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// success records a healthy interaction (dispatch completed, or a probe
// answered): the circuit closes and the failure count resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	changed := b.state != CircuitClosed
	b.state = CircuitClosed
	b.failures = 0
	b.trial = false
	if changed {
		b.note()
	}
}

// failure records a transport-level failure. A failed half-open trial
// re-opens immediately; in closed state the threshold applies.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.trial = false
	if b.state == CircuitHalfOpen || b.failures >= b.threshold {
		if b.state != CircuitOpen {
			b.state = CircuitOpen
			b.note()
		}
		b.openedAt = time.Now()
	}
}

// State returns the current circuit state string.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RemoteOptions tunes one remote lane.
type RemoteOptions struct {
	// Addr is the worker's base URL ("http://host:port").
	Addr string
	// Dispatchers is the lane's concurrent-dispatch complement (>= 1).
	Dispatchers int
	// Depth bounds the lane's queue.
	Depth int
	// ProbeInterval is the heartbeat cadence (0 disables the prober —
	// tests that drive health by hand).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay.
	BreakerCooldown time.Duration
	// Client overrides the HTTP client (tests); nil uses a default with no
	// global timeout — per-dispatch lifetimes come from the job context.
	Client *http.Client
	// OnCircuit observes circuit-state changes; OnRTT observes successful
	// heartbeat round-trip times; OnDispatchFailure counts transport-level
	// dispatch failures. All optional.
	OnCircuit         func(string)
	OnRTT             func(time.Duration)
	OnDispatchFailure func()
	// OnSpans receives each dispatched job's worker-side span records,
	// already skew-corrected and lane-labelled. Called from dispatcher
	// goroutines (WireResult piggyback) and the prober (stash drain), so the
	// sink must be concurrency-safe. Optional.
	OnSpans func(job string, spans []obs.SpanRecord)
}

// Remote is the HTTP-dispatch Backend.
type Remote struct {
	name   string
	opt    RemoteOptions
	client *http.Client
	queue  chan *Job
	wg     sync.WaitGroup // dispatchers + prober
	br     *breaker

	ctx    context.Context // prober lifetime; canceled by Close
	cancel context.CancelFunc

	rttNanos      atomic.Int64 // last successful heartbeat RTT
	dispatchFails atomic.Int64
	clockOffUS    atomic.Int64 // worker clock minus coordinator clock, micros; refreshed by each successful ping
}

// NewRemote builds a remote lane. Call Start to begin dispatching.
func NewRemote(name string, opt RemoteOptions) *Remote {
	if opt.Dispatchers < 1 {
		opt.Dispatchers = 1
	}
	if opt.Depth < 1 {
		opt.Depth = 1
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Remote{
		name:   name,
		opt:    opt,
		client: client,
		queue:  make(chan *Job, opt.Depth),
		br:     newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, opt.OnCircuit),
		ctx:    ctx,
		cancel: cancel,
	}
}

func (r *Remote) Name() string  { return r.name }
func (r *Remote) Addr() string  { return r.opt.Addr }
func (r *Remote) Depth() int    { return len(r.queue) }
func (r *Remote) Capacity() int { return cap(r.queue) }
func (r *Remote) Workers() int  { return r.opt.Dispatchers }

func (r *Remote) Enqueue(jb *Job) error {
	select {
	case r.queue <- jb:
		return nil
	default:
		return ErrQueueFull
	}
}

func (r *Remote) Start(run func(*Job)) {
	r.wg.Add(r.opt.Dispatchers)
	for i := 0; i < r.opt.Dispatchers; i++ {
		go func() {
			defer r.wg.Done()
			for jb := range r.queue {
				run(jb)
			}
		}()
	}
	if r.opt.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
}

// Close stops the prober and intake; queued jobs drain through the
// dispatchers first (the scheduler cancels them during shutdown, so the
// drain is fast).
func (r *Remote) Close() {
	r.cancel()
	close(r.queue)
}

// Wait blocks until the dispatchers and prober have exited, then releases
// idle keep-alive connections so a shut-down coordinator holds no sockets
// open to its workers.
func (r *Remote) Wait() {
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Healthy reports whether routing may consider this lane: any circuit
// state but open. Half-open counts as healthy so the trial dispatch that
// would close the circuit can actually happen.
func (r *Remote) Healthy() bool { return r.br.State() != CircuitOpen }

// CircuitState returns the lane's circuit state for /stats.
func (r *Remote) CircuitState() string { return r.br.State() }

// LastRTT returns the most recent successful heartbeat round trip (0
// before the first probe).
func (r *Remote) LastRTT() time.Duration { return time.Duration(r.rttNanos.Load()) }

// DispatchFailures returns the lane's transport-level failure count.
func (r *Remote) DispatchFailures() int64 { return r.dispatchFails.Load() }

// probeLoop is the heartbeat: ping the worker every interval, feeding the
// breaker. Success closes the circuit (readmission); failure counts toward
// opening it even with no traffic, so a silently dead worker is ejected
// within threshold × interval.
func (r *Remote) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
			if err := r.Ping(r.ctx); err != nil {
				r.br.failure()
			} else {
				r.br.success()
				// A live worker may hold spans for jobs whose WireResult
				// never reached us (leased-then-rerouted); collect them on
				// the heartbeat so those timelines still merge.
				r.drainSpans(r.ctx)
			}
		}
	}
}

// Ping performs one heartbeat round trip, recording its RTT on success.
func (r *Remote) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if rule := fault.InjectNet(ctx, FaultHeartbeat); rule != nil {
		return errs.Transient("fault: injected %s at %s", rule.Kind, FaultHeartbeat)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.Addr+WorkerPingPath, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker %s ping: status %d", r.name, resp.StatusCode)
	}
	rtt := time.Since(t0)
	r.rttNanos.Store(int64(rtt))
	if r.opt.OnRTT != nil {
		r.opt.OnRTT(rtt)
	}
	if h := resp.Header.Get(WorkerTimeHeader); h != "" {
		if workerUS, err := strconv.ParseInt(h, 10, 64); err == nil {
			// The worker stamped its clock somewhere inside our round trip;
			// assume the midpoint, so offset ≈ worker − (t0 + rtt/2). Good to
			// within rtt/2, which is far below span durations on any fabric
			// worth tracing.
			r.clockOffUS.Store(workerUS - (t0.UnixMicro() + rtt.Microseconds()/2))
		}
	}
	return nil
}

// drainSpans collects the worker's stashed span batches (jobs whose
// WireResult never made it back) and hands them to the OnSpans sink.
// Best-effort: a failed drain leaves the stash on the worker for the next
// heartbeat.
func (r *Remote) drainSpans(ctx context.Context) {
	if r.opt.OnSpans == nil {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.Addr+WorkerSpansPath, nil)
	if err != nil {
		return
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return
	}
	var batches []WireSpanBatch
	if err := json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&batches); err != nil {
		return
	}
	for _, b := range batches {
		r.deliverSpans(b.Job, b.Spans)
	}
}

// deliverSpans skew-corrects and lane-labels one job's worker records, then
// hands them to the OnSpans sink. Worker timestamps are the worker's wall
// clock; subtracting the heartbeat-estimated offset places them on the
// coordinator's timeline so the merged trace doesn't show a solver starting
// before its dispatch.
func (r *Remote) deliverSpans(job string, spans []obs.SpanRecord) {
	if r.opt.OnSpans == nil || len(spans) == 0 {
		return
	}
	off := r.clockOffUS.Load()
	for i := range spans {
		spans[i].StartUS -= off
		spans[i].Proc = r.name
	}
	r.opt.OnSpans(job, spans)
}

// unavailable wraps a dispatch failure so both classifications hold:
// errs.ErrTransient makes the scheduler's backoff retry it on this lane,
// and errs.ErrUnavailable makes the post-retry path re-route instead of
// failing the job (and maps to 503 if the job does fail).
func (r *Remote) unavailable(format string, args ...any) error {
	return fmt.Errorf("dispatch to %s: %s: %w (%w)", r.name,
		fmt.Sprintf(format, args...), errs.ErrUnavailable, errs.Transient("remote transport"))
}

// Execute dispatches one job to the worker and decodes its result. The
// returned error is either transport-classed (ErrUnavailable+ErrTransient;
// the lane is suspect) or the job's own typed failure rebuilt from the
// wire (the lane is fine). ctx cancellation propagates to the worker by
// aborting the in-flight request.
func (r *Remote) Execute(ctx context.Context, jb *Job) (*ExecResult, error) {
	if !r.br.allow() {
		// No ErrTransient here: retrying an open circuit on the same lane
		// is pointless, the caller should go straight to re-routing.
		return nil, fmt.Errorf("dispatch to %s: circuit open: %w", r.name, errs.ErrUnavailable)
	}
	res, err := r.dispatch(ctx, jb)
	if err != nil && ctx.Err() == nil {
		r.dispatchFails.Add(1)
		if r.opt.OnDispatchFailure != nil {
			r.opt.OnDispatchFailure()
		}
		r.br.failure()
		return nil, err
	}
	if err != nil {
		// The job's context ended mid-dispatch: not the lane's fault.
		return nil, errs.FromContext(ctx)
	}
	r.br.success()
	// Piggybacked spans are part of the job's story whether the attempt
	// succeeded or the worker reported a typed failure.
	r.deliverSpans(jb.ID, res.Spans)
	if res.Error != "" {
		return nil, errorFromClass(res.Class, res.Error)
	}
	return &ExecResult{Metrics: res.Metrics, Placements: res.Placements}, nil
}

// dispatch performs the HTTP round trip, simulating any armed network
// fault at the FaultDispatch point. Errors are transport-classed.
func (r *Remote) dispatch(ctx context.Context, jb *Job) (*WireResult, error) {
	rule := fault.InjectNet(ctx, FaultDispatch)
	if rule != nil {
		switch rule.Kind {
		case fault.KindRefuse, fault.KindError:
			// Fail before any bytes are sent: the worker never sees the job.
			return nil, r.unavailable("connection refused (injected)")
		}
	}
	// The dispatch span's context rides the wire so the worker's spans
	// parent under it and share the job's TraceID.
	body, err := json.Marshal(WireJob{
		ID:          jb.ID,
		Req:         jb.Request(),
		Traceparent: obs.SpanContextFrom(ctx).Traceparent(),
	})
	if err != nil {
		return nil, fmt.Errorf("dispatch to %s: encode: %w", r.name, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.opt.Addr+WorkerExecutePath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("dispatch to %s: %w", r.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, r.unavailable("%v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, r.unavailable("read response: %v", err)
	}
	if rule != nil {
		switch rule.Kind {
		case fault.KindDrop:
			// The worker ran the job; its response died mid-body.
			raw = raw[:len(raw)/2]
		case fault.KindCorrupt:
			// Flip the leading byte: a JSON body that no longer starts with
			// '{' is guaranteed unparseable, which is the contract of the
			// corrupt kind (a mid-string bit flip could survive decoding).
			if len(raw) > 0 {
				raw[0] ^= 0xff
			}
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return nil, r.unavailable("worker at capacity (503)")
	default:
		return nil, r.unavailable("status %d: %s", resp.StatusCode, truncate(raw, 200))
	}
	var res WireResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, r.unavailable("malformed response: %v", err)
	}
	return &res, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
