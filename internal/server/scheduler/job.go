package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/obs"
	"mthplace/internal/par"
	"mthplace/internal/server/store"
	"mthplace/internal/synth"
)

// State is a job's lifecycle phase.
type State string

// Job lifecycle: Queued -> Running -> Done | Failed | Canceled. A queued
// job canceled before a worker claims it goes straight to Canceled, and a
// job fully served from the solve cache goes straight to Done.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state can no longer change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Cache-control values for JobRequest.Cache (the HTTP layer also maps the
// standard Cache-Control request header onto them).
const (
	// CacheDefault ("" on the wire): read and populate the solve cache.
	CacheDefault = ""
	// CacheBypass ("bypass", header no-cache): skip the lookup — always
	// solve — but still store the result for later submissions.
	CacheBypass = "bypass"
	// CacheNoStore ("no-store", header no-store): serve from cache when
	// possible, but never store this job's result.
	CacheNoStore = "no-store"
	// CacheOff ("off", header no-cache, no-store): neither read nor write.
	CacheOff = "off"
)

// JobRequest is the submit body (one element of a batch). A spec is
// selected either by Table II testcase name or given inline; the remaining
// fields override flow.DefaultConfig for this job only.
type JobRequest struct {
	// Testcase names a Table II spec (e.g. "des3_210"). Mutually exclusive
	// with Spec.
	Testcase string `json:"testcase,omitempty"`
	// Spec is an explicit synthesis spec.
	Spec *synth.Spec `json:"spec,omitempty"`
	// Flows lists the flow IDs to run, in order (1..5). Defaults to [5].
	Flows []int `json:"flows,omitempty"`
	// Scale multiplies the spec's cell count (default 1.0).
	Scale float64 `json:"scale,omitempty"`
	// Seed selects the deterministic random stream (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Jobs bounds this job's private worker pool. 0 means the job shares
	// the scheduler's budgeted pool instead of getting its own. Not part of
	// the cache identity: results are bit-identical at any parallelism.
	Jobs int `json:"jobs,omitempty"`
	// FencePasses overrides the fence-aware legalization pass count.
	FencePasses int `json:"fence_passes,omitempty"`
	// Route additionally routes each result and fills post-route metrics.
	Route bool `json:"route,omitempty"`
	// TimeoutMS bounds the whole job; expiry surfaces as ErrTimeout (504).
	// Not part of the cache identity: a deadline that fired degrades the
	// result, and degraded results are never cached.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Solver selects the RAP solver backend for this job: "rap" or
	// "greedy". Empty uses the scheduler's default.
	Solver string `json:"solver,omitempty"`
	// Cache is the cache-control directive: "", "bypass", "no-store" or
	// "off" (see the Cache* constants).
	Cache string `json:"cache,omitempty"`
	// Traceparent is the client's W3C trace context ("00-<trace>-<span>-01");
	// the transport also maps the standard traceparent request header onto
	// it. The job adopts the client's TraceID so its whole fabric timeline
	// is joinable with the client's own tracing; an invalid value is ignored
	// (a fresh TraceID is minted), never rejected. Not part of the cache
	// identity: tracing is read-only with respect to placement.
	Traceparent string `json:"traceparent,omitempty"`
}

// validate resolves the spec and flow list, returning a client error when
// the request is malformed (mapped to 400).
func (r *JobRequest) validate() (synth.Spec, []flow.ID, error) {
	var spec synth.Spec
	switch {
	case r.Testcase != "" && r.Spec != nil:
		return spec, nil, errors.New("give testcase or spec, not both")
	case r.Testcase != "":
		// A Table II name (circuit and clock, e.g. "aes_300"), the names
		// the CLI accepts; a bare circuit name is ambiguous.
		s, err := synth.Lookup(r.Testcase)
		if err != nil {
			return spec, nil, err
		}
		spec = s
	case r.Spec != nil:
		spec = *r.Spec
		if spec.Circuit == "" || spec.Cells <= 0 {
			return spec, nil, errors.New("inline spec needs circuit and cells > 0")
		}
	default:
		return spec, nil, errors.New("missing testcase or spec")
	}
	ids := []flow.ID{flow.Flow5}
	if len(r.Flows) > 0 {
		ids = ids[:0]
		for _, n := range r.Flows {
			id := flow.ID(n)
			if id < flow.Flow1 || id > flow.Flow5 {
				return spec, nil, fmt.Errorf("flow %d out of range 1..5", n)
			}
			ids = append(ids, id)
		}
	}
	if r.Scale < 0 {
		return spec, nil, errors.New("scale must be >= 0")
	}
	if r.Jobs < 0 || r.TimeoutMS < 0 || r.FencePasses < 0 {
		return spec, nil, errors.New("jobs, fence_passes and timeout_ms must be >= 0")
	}
	if err := core.ValidBackend(r.Solver); err != nil {
		return spec, nil, err
	}
	switch r.Cache {
	case CacheDefault, CacheBypass, CacheNoStore, CacheOff:
	default:
		return spec, nil, fmt.Errorf("unknown cache directive %q (want %q, %q, %q or %q)",
			r.Cache, CacheDefault, CacheBypass, CacheNoStore, CacheOff)
	}
	return spec, ids, nil
}

// cacheRead/cacheWrite interpret the cache directive.
func (r *JobRequest) cacheRead() bool {
	return r.Cache == CacheDefault || r.Cache == CacheNoStore
}
func (r *JobRequest) cacheWrite() bool {
	return r.Cache == CacheDefault || r.Cache == CacheBypass
}

// instance builds the canonical cache identity of one flow of this request,
// with every default resolved (store package doc has the full contract).
func (r *JobRequest) instance(id flow.ID, defaultSolver string) store.Instance {
	def := flow.DefaultConfig()
	inst := store.Instance{
		Testcase:    r.Testcase,
		Spec:        r.Spec,
		Scale:       r.Scale,
		Seed:        r.Seed,
		FencePasses: r.FencePasses,
		Solver:      r.Solver,
		Route:       r.Route,
		Flow:        int(id),
	}
	if inst.Scale == 0 {
		inst.Scale = def.Synth.Scale
	}
	if inst.Seed == 0 {
		inst.Seed = def.Synth.Seed
	}
	if inst.FencePasses == 0 {
		inst.FencePasses = def.FencePasses
	}
	if inst.Solver == "" {
		inst.Solver = defaultSolver
	}
	if inst.Solver == "" {
		inst.Solver = core.BackendRAP
	}
	return inst
}

// config builds this job's flow configuration on top of the defaults.
// defaultSolver is the scheduler-wide backend applied when the request
// names none.
func (r *JobRequest) config(shared *par.Pool, defaultSolver string) flow.Config {
	cfg := flow.DefaultConfig()
	if r.Scale > 0 {
		cfg.Synth.Scale = r.Scale
	}
	if r.Seed != 0 {
		cfg.Synth.Seed = r.Seed
	}
	if r.FencePasses > 0 {
		cfg.FencePasses = r.FencePasses
	}
	if r.Jobs > 0 {
		cfg.Jobs = r.Jobs
	} else {
		cfg.Pool = shared
	}
	cfg.Core.Solve.Backend = r.Solver
	if cfg.Core.Solve.Backend == "" {
		cfg.Core.Solve.Backend = defaultSolver
	}
	return cfg
}

// ExecResult is what one execution of a job's flows produces: the metrics
// plus a SHA-256 digest of each flow's final placement (the proof that a
// cache hit replays the cold solve bit for bit), and each flow's run time
// for /stats flow_latency.
type ExecResult struct {
	Metrics    map[flow.ID]flow.Metrics
	Placements map[flow.ID]string
	Durations  map[flow.ID]time.Duration
}

// ExecFunc runs one dispatched request on a worker. The default is
// RunRequest; tests swap in stubs via WorkerHandler.SetExec or, for every
// in-process lane at once, Scheduler.SetExec.
type ExecFunc func(ctx context.Context, req JobRequest) (*ExecResult, error)

// Job is one placement run through the fabric. All mutable fields are
// guarded by mu; JSON rendering goes through View.
type Job struct {
	ID   string
	seqn int64 // journal sequence; immutable after construction

	mu        sync.Mutex
	state     State
	req       JobRequest
	flows     []flow.ID
	spec      synth.Spec
	keys      []store.Key // per-flow cache keys, aligned with flows
	backend   string      // lane that last claimed the job ("" until then, and for cache hits)
	cacheHit  bool        // served from the solve cache without running
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       error
	cancel    context.CancelFunc
	attempts  int  // executions so far (1 + retries)
	degraded  bool // some flow settled below the ILP-optimum rung
	replayed  bool // re-queued from the journal after a crash
	progress  JobProgress

	// Remote-dispatch ownership. epoch counts claims: a re-routed job is
	// claimed again on its new lane, and only the attempt holding the
	// current epoch may terminalize the job — the exactly-once guard that
	// resolves a re-route racing its original completion. finishing latches
	// once the winning attempt starts committing its outcome, so the lease
	// monitor can never requeue a job whose result is being stored.
	epoch     int64
	finishing bool
	lease     time.Time // lease deadline; zero when not remotely leased
	reroutes  int       // times the job moved lanes after dispatch failure or lease expiry
	failCause error     // terminal error imposed by the lease monitor (overrides ctx errors)

	// Distributed-trace identity, fixed at submit (or journal replay).
	// trace.SpanID is the job's root span; traceParent is the client's span
	// ID when the submission carried a traceparent ("" otherwise).
	trace       obs.SpanContext
	traceParent string

	// Inflight accounting latches. started/finished metrics must pair
	// exactly once per job whatever path terminalizes it — first claim,
	// rerouted re-claim, cancel-while-requeued, shutdown — or
	// jobs_inflight drifts (see countStart/countFinish).
	startCounted  bool
	finishCounted bool
	rootTraced    bool // the terminal "job" root span has been recorded
}

// initTrace fixes the job's trace identity: the TraceID is adopted from a
// valid request traceparent (the client's trace) or minted fresh, and the
// root span gets its own ID. Called once, before the job is visible.
func (j *Job) initTrace() {
	if sc, ok := obs.ParseTraceparent(j.req.Traceparent); ok {
		j.trace = obs.SpanContext{TraceID: sc.TraceID, SpanID: obs.NewSpanID()}
		j.traceParent = sc.SpanID
		return
	}
	j.trace = obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID()}
}

// TraceID returns the job's distributed trace ID.
func (j *Job) TraceID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace.TraceID
}

// rootSpan returns the job's root span context — the parent every dispatch
// span (and scheduler instant event) nests under.
func (j *Job) rootSpan() obs.SpanContext {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// countStart reports whether this call should count the job as started —
// true exactly once, on the first claim (replayed or not).
func (j *Job) countStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.startCounted {
		return false
	}
	j.startCounted = true
	return true
}

// countFinish reports whether this call should count the job as finished:
// true exactly once, and only for jobs whose start was counted. Paired with
// countStart it keeps started−finished (jobs_inflight) exact across every
// terminal path, including a job canceled while sitting re-queued between
// lanes — the path that previously leaked inflight forever.
func (j *Job) countFinish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.startCounted || j.finishCounted {
		return false
	}
	j.finishCounted = true
	return true
}

// markRootTraced latches the terminal root-span record: whichever terminal
// path gets here first writes the single "job" span.
func (j *Job) markRootTraced() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rootTraced {
		return false
	}
	j.rootTraced = true
	return true
}

// JobProgress is the live solver-progress snapshot of a running job, fed by
// the observability event stream (flow stage transitions, solver
// incumbents, k-means iterations). All fields are cumulative over the
// job's flows.
type JobProgress struct {
	// Stage is the flow stage most recently entered
	// (parse/cluster/solve/legalize/route).
	Stage string `json:"stage,omitempty"`
	// KMeansIterations counts Lloyd iterations across all clusterings.
	KMeansIterations int `json:"kmeans_iterations,omitempty"`
	// Incumbents counts solver incumbent improvements observed.
	Incumbents int `json:"incumbents,omitempty"`
	// BestObjective is the objective of the latest incumbent.
	BestObjective float64 `json:"best_objective,omitempty"`
	// Gap is the latest incumbent's optimality gap (-1 when unknown).
	Gap float64 `json:"gap,omitempty"`
	// Events counts every progress event received.
	Events int `json:"events,omitempty"`
}

// noteProgress is the job's obs.SinkFunc: it folds the event stream into
// the JobProgress snapshot surfaced by the status endpoints.
func (j *Job) noteProgress(e obs.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Events++
	switch {
	case e.Source == "flow" && e.Kind == "stage":
		j.progress.Stage = e.Stage
	case e.Source == "kmeans" && e.Kind == "iteration":
		j.progress.KMeansIterations++
	case e.Kind == "incumbent":
		j.progress.Incumbents++
		j.progress.BestObjective = e.Objective
		j.progress.Gap = e.Gap
	}
}

// JobView is the wire representation of a job.
type JobView struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	Testcase  string     `json:"testcase"`
	Flows     []int      `json:"flows"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Attempts counts executions; >1 means transient failures were retried.
	Attempts int `json:"attempts,omitempty"`
	// Degraded marks a job whose solve settled below the proven ILP
	// optimum (anytime incumbent or greedy fallback).
	Degraded bool `json:"degraded,omitempty"`
	// Replayed marks a job recovered from the journal after a crash.
	Replayed bool `json:"replayed,omitempty"`
	// Reroutes counts lane moves after dispatch failures or lease expiry.
	Reroutes int `json:"reroutes,omitempty"`
	// CacheHit marks a job served entirely from the solve cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Backend names the lane that last claimed the job: empty while it
	// waits for its first lane, and for cache hits, which never reach one.
	// A re-routed job waiting in the queue still names the lane it left.
	Backend string `json:"backend,omitempty"`
	// Progress is the live solver-progress snapshot; present once the job
	// has produced at least one observability event.
	Progress *JobProgress `json:"progress,omitempty"`
	// TraceID is the job's distributed trace ID — the key that joins this
	// job's logs, metrics exemplars and GET /v1/jobs/{id}/trace timeline.
	TraceID string `json:"trace_id,omitempty"`
}

// View renders the job for the wire.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Testcase:  j.spec.Name(),
		Submitted: j.submitted,
	}
	for _, id := range j.flows {
		v.Flows = append(v.Flows, int(id))
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	v.Attempts = j.attempts
	v.Degraded = j.degraded
	v.Replayed = j.replayed
	v.Reroutes = j.reroutes
	v.CacheHit = j.cacheHit
	v.Backend = j.backend
	v.TraceID = j.trace.TraceID
	if j.progress.Events > 0 {
		p := j.progress
		v.Progress = &p
	}
	return v
}

// noteAttempt counts one execution of the job's flows.
func (j *Job) noteAttempt() {
	j.mu.Lock()
	j.attempts++
	j.mu.Unlock()
}

// noteDegraded marks the job as having settled below the ILP optimum.
func (j *Job) noteDegraded() {
	j.mu.Lock()
	j.degraded = true
	j.mu.Unlock()
}

// Snapshot returns the job's state and terminal error. Successful results
// live in the result store, not on the job.
func (j *Job) Snapshot() (State, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.err
}

// Request returns a copy of the job's request (immutable after submit).
func (j *Job) Request() JobRequest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.req
}

// requestCancel transitions the job toward Canceled. A queued job is
// finished immediately (the worker will skip it); a running job has its
// context canceled and finishes when the flow unwinds. Returns false when
// the job is already terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = errs.ErrCanceled
		j.finished = time.Now()
		return true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

// claim takes a queued job for a worker on lane, attaching its cancel handle.
// ok is false if the job was canceled while waiting in the queue — the
// work-claiming handshake that makes cancel-while-queued race-free. The
// returned epoch identifies this attempt: after a re-route the job is
// claimed again under a higher epoch, and only the holder of the current
// epoch may terminalize the job (see beginFinish).
func (j *Job) claim(cancel context.CancelFunc, lane string) (epoch int64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return 0, false
	}
	j.state = StateRunning
	j.backend = lane
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.cancel = cancel
	j.epoch++
	return j.epoch, true
}

// firstClaim reports whether epoch is the job's first claim — the one that
// should journal EventStarted and bump the inflight accounting. Re-claims
// after a re-route must not, or the started/finished counters drift.
func firstClaim(epoch int64) bool { return epoch == 1 }

// beginFinish claims the exclusive right to terminalize the job on behalf
// of attempt epoch. It succeeds only when the job is still Running, the
// epoch is current (the attempt was not re-routed away), and no other
// finisher got here first; the finishing latch then blocks the lease
// monitor from requeueing while the outcome is committed to the result
// store. The winner must follow up with finish(). A false return means the
// attempt's result must be discarded — some newer epoch owns the job.
func (j *Job) beginFinish(epoch int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch || j.finishing {
		return false
	}
	j.finishing = true
	return true
}

// requeue moves a Running job back to Queued for re-dispatch, invalidating
// attempt epoch. It fails when the epoch is stale, the job already entered
// finishing, or the re-route budget (max) is spent.
// The returned cancel handle (possibly nil) belongs to the abandoned
// attempt; the caller cancels it *after* enqueueing so the old worker
// unwinds without ever having owned a committable epoch.
func (j *Job) requeue(epoch int64, max int) (cancel context.CancelFunc, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch || j.finishing {
		return nil, false
	}
	if j.reroutes >= max {
		return nil, false
	}
	j.reroutes++
	j.state = StateQueued
	j.lease = time.Time{}
	cancel = j.cancel
	j.cancel = nil
	return cancel, true
}

// setLease (re)arms the lease deadline for the attempt identified by epoch.
// A stale epoch is ignored: the renewal loop of an abandoned attempt must
// not extend the lease the new owner runs under.
func (j *Job) setLease(epoch int64, deadline time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch {
		return false
	}
	j.lease = deadline
	return true
}

// renewLease extends the lease, but only while it is still live. A lapsed
// lease is gone — the monitor is entitled to re-route the job at any
// moment — so a renewal landing after expiry must not resurrect it: a
// partition that heals while the old attempt's response path is still dead
// would otherwise keep the job leased (and the attempt hung) forever, with
// every ping extending a lease the worker can no longer honor. Renewal has
// to complete before the deadline, like any lease protocol.
func (j *Job) renewLease(epoch int64, now, deadline time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch || j.lease.IsZero() || now.After(j.lease) {
		return false
	}
	j.lease = deadline
	return true
}

// leaseExpired reports whether the job holds a lease that lapsed before
// now, returning the epoch to invalidate. The finishing latch masks
// expiry: a job whose result is mid-commit is no longer re-routable.
func (j *Job) leaseExpired(now time.Time) (epoch int64, expired bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.finishing || j.lease.IsZero() || now.Before(j.lease) {
		return 0, false
	}
	return j.epoch, true
}

// backendName returns the lane that last claimed the job.
func (j *Job) backendName() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.backend
}

// condemn plants the error the lease monitor wants the job to fail with
// and cancels the attempt's context — but only while attempt epoch still
// owns the job. The running attempt's unwind consumes the cause via
// takeFailCause, so an "out of re-routes" job reports backend
// unavailability rather than the cancellation used to stop it. The epoch
// guard matters: a sweep that lost the re-route race (the attempt's own
// unwind, or another sweep, moved the job on between leaseExpired and
// here) must not touch the job — an unguarded cancel could land on the
// freshly re-queued job and kill it with no terminal journal event.
func (j *Job) condemn(epoch int64, cause error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.epoch != epoch || j.finishing {
		return
	}
	j.failCause = cause
	if j.cancel != nil {
		j.cancel()
	}
}

// takeFailCause returns and clears the imposed failure cause, if any.
func (j *Job) takeFailCause() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.failCause
	j.failCause = nil
	return err
}

// finish records the outcome. A cancellation error lands in StateCanceled,
// any other error in StateFailed.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.finished = time.Now()
	j.err = err
	j.lease = time.Time{}
	switch {
	case err == nil:
		j.state = StateDone
	case errors.Is(err, errs.ErrCanceled):
		j.state = StateCanceled
	default:
		j.state = StateFailed
	}
}

// completeFromCache finishes a just-created job as a cache hit.
func (j *Job) completeFromCache() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.cacheHit = true
	j.finished = time.Now()
}
