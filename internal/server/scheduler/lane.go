// Execution lanes. Every lane is the same thing: a fixed set of dispatcher
// goroutines that pull jobs from the scheduler's one queue (queue.go), each
// of which ships a job's request to a worker (worker.go) as a WireJob and
// waits for the WireResult under a lease. A remote lane's worker is a peer
// mthserved -worker process; an in-process lane's is a handler in this
// process, reached through an http.Client whose transport calls it
// directly with no socket. That client is the only difference between the
// two.
//
// Failure handling lives in three places with sharp boundaries:
//
//   - transport-level trouble (connection refused, truncated or corrupt
//     response, worker 503) is classed errs.ErrTransient + ErrUnavailable,
//     so the scheduler's backoff retries it a few times and then puts the
//     job back at the front of the queue for another lane (runJobOn);
//   - job-level failures reported by a healthy worker (infeasible, panic,
//     timeout) are rebuilt as typed errors from their wire class, and never
//     count against the lane's health;
//   - lane-level health is a circuit breaker fed by dispatch outcomes and
//     a heartbeat prober, so a dead worker stops taking jobs within a
//     bounded window and takes them again only after a probe succeeds.
package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// ErrQueueFull is returned by Submit when the scheduler's queue is at
// capacity; the transport maps it to 429.
var ErrQueueFull = errors.New("job queue full")

// Fault-point names at the dispatch boundary of every lane. The "remote."
// prefix predates in-process lanes going through the wire; MTHPLACE_FAULTS
// specs name the points by it.
const (
	// FaultDispatch governs Lane.Execute on every lane: refuse fails the dispatch
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
// short-circuits Execute and stops the lane taking jobs from the queue.
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
// re-opens immediately; in closed state the threshold applies. Every
// failure of an open circuit restarts its cooldown, and is reported like
// a state change: a lane whose cooldown had ended stops taking jobs again.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.trial = false
	if b.state == CircuitHalfOpen || b.failures >= b.threshold {
		b.state = CircuitOpen
		b.openedAt = time.Now()
		b.note()
	}
}

// cooldownLeft returns how long an open circuit still refuses dispatches;
// 0 once allow would admit one.
func (b *breaker) cooldownLeft() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != CircuitOpen {
		return 0
	}
	return max(b.cooldown-time.Since(b.openedAt), 0)
}

// State returns the current circuit state string.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// LaneOptions tunes one lane.
type LaneOptions struct {
	// Addr is a remote worker's base URL ("http://host:port"); empty for an
	// in-process lane, whose Client reaches its worker without one.
	Addr string
	// Dispatchers is the lane's concurrent-dispatch complement (>= 1).
	Dispatchers int
	// ProbeInterval is the heartbeat cadence (0 disables the prober —
	// tests that drive health by hand).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay.
	BreakerCooldown time.Duration
	// Client carries the lane's requests; nil uses a default with no global
	// timeout — per-dispatch lifetimes come from the job context. An
	// in-process lane's client has a handlerTransport.
	Client *http.Client
	// Registry receives the lane's series, labelled backend=<name>: the
	// circuit state, the last heartbeat round trip and the dispatch
	// failure count. Required.
	Registry *obs.Registry
	// OnCircuit is called on every circuit change, under the breaker's lock,
	// so it must not call back into the lane. Optional.
	OnCircuit func()
	// OnSpans receives each dispatched job's worker-side span records,
	// already skew-corrected and lane-labelled. Called from dispatcher
	// goroutines (WireResult piggyback) and the prober (stash drain), so the
	// sink must be concurrency-safe. Optional.
	OnSpans func(job string, spans []obs.SpanRecord)
}

// Lane is one execution lane of the scheduler: its dispatchers take jobs
// from the scheduler's queue while the lane is healthy. Everything
// job-lifecycle (claiming, leases, retries, journaling) stays in the
// scheduler.
type Lane struct {
	name   string
	opt    LaneOptions
	client *http.Client
	wg     sync.WaitGroup // dispatchers + prober
	br     *breaker
	busy   atomic.Int64 // jobs in flight: taken from the queue, attempt not yet over

	ctx    context.Context // prober lifetime; canceled by Close
	cancel context.CancelFunc

	rtt        *obs.Gauge   // last successful heartbeat round trip, seconds
	fails      *obs.Counter // transport-level dispatch failures
	clockOffUS atomic.Int64 // worker clock minus coordinator clock, micros; refreshed by each successful ping
}

// NewLane builds a lane. Call Start to begin dispatching.
func NewLane(name string, opt LaneOptions) *Lane {
	if opt.Dispatchers < 1 {
		opt.Dispatchers = 1
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	reg, labels := opt.Registry, obs.Labels{"backend": name}
	circuit := reg.Gauge("backend_circuit_state", "Lane circuit state (0 closed, 1 open, 2 half-open).", labels)
	ctx, cancel := context.WithCancel(context.Background())
	return &Lane{
		name:   name,
		opt:    opt,
		client: client,
		br: newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, func(st string) {
			circuit.Set(circuitValue(st))
			if opt.OnCircuit != nil {
				opt.OnCircuit()
			}
		}),
		rtt:    reg.Gauge("backend_heartbeat_rtt_seconds", "Last successful heartbeat round trip per lane.", labels),
		fails:  reg.Counter("dispatch_failures_total", "Transport-level dispatch failures per lane.", labels),
		ctx:    ctx,
		cancel: cancel,
	}
}

// circuitValue maps a circuit state to its gauge encoding.
func circuitValue(state string) float64 {
	switch state {
	case CircuitOpen:
		return 1
	case CircuitHalfOpen:
		return 2
	default:
		return 0
	}
}

func (r *Lane) Name() string { return r.name }
func (r *Lane) Addr() string { return r.opt.Addr }
func (r *Lane) Workers() int { return r.opt.Dispatchers }

// Start launches the dispatchers, each running dispatch until it returns,
// and the prober.
func (r *Lane) Start(dispatch func()) {
	r.wg.Add(r.opt.Dispatchers)
	for i := 0; i < r.opt.Dispatchers; i++ {
		go func() {
			defer r.wg.Done()
			dispatch()
		}()
	}
	if r.opt.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
}

// Close stops the prober. The dispatchers exit once the scheduler's queue
// closes and their jobs in flight end.
func (r *Lane) Close() { r.cancel() }

// Wait blocks until the dispatchers and prober have exited, then releases
// idle keep-alive connections so a shut-down coordinator holds no sockets
// open to its workers.
func (r *Lane) Wait() {
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Healthy reports whether the lane may take jobs: any circuit state but
// open, or open past its cooldown. Half-open and cooled-down count as
// healthy so the trial dispatch that would close the circuit can actually
// happen.
func (r *Lane) Healthy() bool { return r.br.cooldownLeft() == 0 }

// CircuitState returns the lane's circuit state for /stats.
func (r *Lane) CircuitState() string { return r.br.State() }

// probeLoop is the heartbeat: ping the worker every interval, feeding the
// breaker. Success closes the circuit (readmission); failure counts toward
// opening it even with no traffic, so a silently dead worker is ejected
// within threshold × interval.
func (r *Lane) probeLoop() {
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
func (r *Lane) Ping(ctx context.Context) error {
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
	r.rtt.Set(rtt.Seconds())
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
func (r *Lane) drainSpans(ctx context.Context) {
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
func (r *Lane) deliverSpans(job string, spans []obs.SpanRecord) {
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
func (r *Lane) unavailable(format string, args ...any) error {
	return fmt.Errorf("dispatch to %s: %s: %w (%w)", r.name,
		fmt.Sprintf(format, args...), errs.ErrUnavailable, errs.Transient("lane transport"))
}

// Execute dispatches one job to the worker and decodes its result. The
// returned error is either transport-classed (ErrUnavailable+ErrTransient;
// the lane is suspect) or the job's own typed failure rebuilt from the
// wire (the lane is fine). ctx cancellation propagates to the worker by
// aborting the in-flight request.
func (r *Lane) Execute(ctx context.Context, jb *Job) (*ExecResult, error) {
	if !r.br.allow() {
		// No ErrTransient here: retrying an open circuit on the same lane
		// is pointless, the caller should go straight to re-routing.
		return nil, fmt.Errorf("dispatch to %s: circuit open: %w", r.name, errs.ErrUnavailable)
	}
	res, err := r.dispatch(ctx, jb)
	if err != nil && ctx.Err() == nil {
		r.fails.Inc()
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
	return &ExecResult{Metrics: res.Metrics, Placements: res.Placements, Durations: res.Durations}, nil
}

// dispatch performs the HTTP round trip, simulating any armed network
// fault at the FaultDispatch point. Errors are transport-classed.
func (r *Lane) dispatch(ctx context.Context, jb *Job) (*WireResult, error) {
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

// handlerTransport is an in-process lane's http.RoundTripper: it serves
// each request with the lane's worker handler directly, with no socket, so
// the lane speaks the same WireJob/WireResult protocol as a remote one.
// The request context passes through unchanged, which is how the job's
// progress sink and cancellation reach the flows.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &memResponse{header: http.Header{}, code: http.StatusOK}
	// A RoundTripper must not modify req, and ServeMux annotates the
	// request it routes: the handler gets a copy.
	t.h.ServeHTTP(w, req.Clone(req.Context()))
	// Like a socket whose caller hung up: an answer written after the
	// request died never arrives, and the worker has stashed its spans for
	// the heartbeat drain instead.
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: w.code, Header: w.header, Body: io.NopCloser(&w.body), Request: req}, nil
}

// memResponse is the http.ResponseWriter handlerTransport records into.
type memResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) WriteHeader(code int)        { m.code = code }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }
