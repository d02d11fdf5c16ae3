// Package scheduler is the job-execution layer of the placement service:
// it owns the work queues, the execution lanes and their workers, leases,
// retries, the crash-safe journal and the content-addressed solve cache.
// The HTTP layer (internal/server/transport) talks to it only through
// exported methods — no handler reaches into a job's guts.
//
// Every job runs the same way: a lane dispatches it as a WireJob to a
// worker handler under a lease and commits the WireResult. In-process
// lanes reach their handler through an in-memory transport, remote lanes
// over HTTP, so a multi-process deployment changes this package's wiring,
// not its execution path.
//
// Routing: every job's canonical instance key (store.Instance) is
// consistent-hashed onto one lane. With the default single in-process
// lane this is invisible; with several, identical instances always land on
// the same lane, which is what makes per-lane caches and data locality
// work when lanes are separate processes.
package scheduler

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/journal"
	"mthplace/internal/netlist"
	"mthplace/internal/obs"
	"mthplace/internal/par"
	"mthplace/internal/server/store"
)

// Submission errors beyond validation failures (which the transport maps
// to 400).
var (
	// ErrNotAccepting rejects submissions during shutdown (503).
	ErrNotAccepting = errors.New("server is shutting down")
	// ErrJournal rejects a submission whose acceptance record could not be
	// made durable (500).
	ErrJournal = errors.New("job journal write failed")
)

// Options tunes the scheduler.
type Options struct {
	// Workers is the total number of jobs run concurrently, divided across
	// the in-process lanes (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting behind the workers
	// across all backends (default 16); submissions beyond a backend's
	// share get ErrQueueFull.
	QueueDepth int
	// Backends is the number of in-process execution lanes jobs are
	// consistent-hash routed across (default 1, or 0 when Remotes are
	// configured — a pure coordinator runs nothing locally). Each has its
	// own worker handler. Remote lanes are additional: the ring spans
	// Backends + len(Remotes) lanes.
	Backends int
	// Remotes lists worker base URLs ("http://host:port"); each becomes a
	// lane dispatching jobs to a peer mthserved -worker process.
	Remotes []string
	// RemoteWorkers is the concurrent-dispatch complement per remote lane
	// (default 2): how many jobs one worker is sent at a time.
	RemoteWorkers int
	// LeaseDuration bounds a lane's job ownership (default 15s): a
	// dispatched job whose worker stops answering heartbeats for this long
	// is re-routed to another lane.
	LeaseDuration time.Duration
	// RerouteMax bounds how many times one job may move lanes after
	// dispatch failures or lease expiries (default 3); past it the job
	// fails with errs.ErrUnavailable.
	RerouteMax int
	// ProbeInterval is the health-prober heartbeat cadence per lane
	// (default 2s).
	ProbeInterval time.Duration
	// BreakerThreshold consecutive dispatch/probe failures open a lane's
	// circuit (default 3).
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay (default 2×
	// ProbeInterval).
	BreakerCooldown time.Duration
	// PoolJobs bounds the shared worker pool that jobs without a private
	// Jobs setting draw from (default GOMAXPROCS).
	PoolJobs int
	// MaxRetries is how many times a job failing with errs.ErrTransient is
	// re-run before the failure is reported (default 2; negative disables
	// retries). Panics, timeouts, cancels and infeasibility never retry.
	MaxRetries int
	// RetryBase is the first backoff delay; attempt n waits RetryBase·2ⁿ
	// plus a deterministic jitter (default 25ms).
	RetryBase time.Duration
	// JournalDir, when set, enables the crash-safe job journal: accepted
	// jobs are recorded before queueing, and on startup any job the
	// journal shows unfinished is re-queued with its original ID.
	JournalDir string
	// DefaultSolver is the RAP solver backend applied to jobs that name
	// none: "rap" (the default when empty) or "greedy".
	DefaultSolver string
	// CacheEntries bounds the content-addressed solve cache; 0 disables
	// caching entirely.
	CacheEntries int
	// ResultCapacity bounds the terminal-outcome store (default
	// store.DefaultResultCapacity).
	ResultCapacity int
	// Logger receives structured diagnostics (journal replay, job
	// lifecycle). Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.Backends <= 0 {
		// A coordinator with remote lanes defaults to running nothing
		// locally; without remotes one local lane is the floor.
		if len(o.Remotes) > 0 {
			o.Backends = 0
		} else {
			o.Backends = 1
		}
	}
	if o.RemoteWorkers <= 0 {
		o.RemoteWorkers = 2
	}
	if o.LeaseDuration <= 0 {
		o.LeaseDuration = 15 * time.Second
	}
	if o.RerouteMax <= 0 {
		o.RerouteMax = 3
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * o.ProbeInterval
	}
	if o.PoolJobs <= 0 {
		o.PoolJobs = runtime.GOMAXPROCS(0)
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	return o
}

// Scheduler runs placement jobs from bounded per-lane queues.
type Scheduler struct {
	opt   Options
	pool  *par.Pool // shared budget for jobs without a private bound
	stats *stats
	jrnl  *journal.Journal // nil when journaling is off
	log   *slog.Logger

	cache   *store.Cache // nil when caching is off
	results *store.Results
	traces  *store.Traces // per-job distributed span sets

	backends []*Lane
	workers  []*WorkerHandler // the in-process lanes' workers, for SetExec
	ring     *ring

	// reg is this scheduler's private metric registry and the only store
	// of its counters: /stats and /metrics both read these series. They
	// live here (not in obs.Default) so multiple schedulers in one process
	// — the normal situation in tests — never cross-accumulate.
	reg       *obs.Registry
	mStarted  *obs.Counter
	mFinished *obs.Counter
	mDegraded *obs.Counter
	mRetries  *obs.Counter
	mPanics   *obs.Counter
	mInflight *obs.Gauge
	mReroutes *obs.Counter
	mLeaseExp *obs.Counter
	// Registered only when the cache is on, so a cache-less scrape shows
	// no cache families.
	mCacheHits   *obs.Counter
	mCacheMisses *obs.Counter

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	// Lease monitor lifetime.
	leaseStop chan struct{}
	leaseWG   sync.WaitGroup

	mu        sync.Mutex // guards jobs/order, intake, and every Enqueue
	jobs      map[string]*Job
	order     []string // submission order, for stable listings
	accepting bool
	seq       atomic.Int64
}

// New starts a scheduler. When a journal directory is configured, jobs the
// journal shows accepted but unfinished (a previous process crashed under
// them) are re-queued, with their original IDs, before the workers start.
// Call Shutdown to stop it.
func New(opt Options) (*Scheduler, error) {
	opt = opt.withDefaults()
	if err := core.ValidBackend(opt.DefaultSolver); err != nil {
		return nil, fmt.Errorf("scheduler: default solver: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opt:        opt,
		pool:       par.NewPool(opt.PoolJobs),
		stats:      newStats(),
		log:        opt.Logger,
		results:    store.NewResults(opt.ResultCapacity),
		traces:     store.NewTraces(opt.ResultCapacity),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		accepting:  true,
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.reg = obs.NewRegistry()
	s.mStarted = s.reg.Counter("jobs_started_total", "Jobs handed to a worker since server start.", nil)
	s.mFinished = s.reg.Counter("jobs_finished_total", "Jobs that reached a terminal state since server start.", nil)
	s.mDegraded = s.reg.Counter("jobs_degraded", "Jobs that settled below the ILP-optimum solve rung.", nil)
	s.mRetries = s.reg.Counter("job_retries", "Transient-failure re-executions.", nil)
	s.mPanics = s.reg.Counter("job_panics", "Job attempts that failed with a recovered panic.", nil)
	s.mInflight = s.reg.Gauge("jobs_inflight", "Jobs currently running (started minus finished).", nil)
	s.mReroutes = s.reg.Counter("job_reroutes_total", "Jobs moved to another lane after a dispatch failure or lease expiry.", nil)
	s.mLeaseExp = s.reg.Counter("lease_expirations_total", "Job leases that expired without a result.", nil)

	if s.cache = store.NewCache(opt.CacheEntries); s.cache != nil {
		s.mCacheHits, s.mCacheMisses = obs.CacheHits(s.reg), obs.CacheMisses(s.reg)
	}

	var pending []journal.PendingJob
	if opt.JournalDir != "" {
		entries, skipped, err := journal.ReadAll(opt.JournalDir)
		if err != nil {
			cancel()
			return nil, err
		}
		if skipped > 0 {
			s.log.Warn("journal: skipped unparseable lines", "dir", opt.JournalDir, "lines", skipped)
		}
		var maxSeq int64
		pending, maxSeq = journal.Pending(entries)
		s.seq.Store(maxSeq)
		if len(pending) > 0 {
			s.log.Info("journal: replaying unfinished jobs", "dir", opt.JournalDir, "jobs", len(pending))
		}
		if s.jrnl, err = journal.Open(opt.JournalDir); err != nil {
			cancel()
			return nil, err
		}
	}

	lanes := opt.Backends + len(opt.Remotes)
	s.ring = newRing(lanes)
	// Replayed jobs must all fit ahead of live traffic, so each lane's
	// queue is sized past its configured share by however many of the
	// journal's jobs route to it.
	replayed, perLane := s.prepareReplay(pending, lanes)
	for i := 0; i < lanes; i++ {
		lo := LaneOptions{
			Depth:            share(opt.QueueDepth, lanes, i) + perLane[i],
			ProbeInterval:    opt.ProbeInterval,
			BreakerThreshold: opt.BreakerThreshold,
			BreakerCooldown:  opt.BreakerCooldown,
			Registry:         s.reg,
			OnSpans:          s.ingestWorkerSpans,
		}
		var name string
		if i < opt.Backends {
			// One worker per in-process lane, with as many slots as the lane
			// has dispatchers, so it never answers 503.
			name, lo.Dispatchers = fmt.Sprintf("local-%d", i), share(opt.Workers, opt.Backends, i)
			w := newWorker(WorkerOptions{Slots: lo.Dispatchers, DefaultSolver: opt.DefaultSolver, Logger: s.log}, s.pool)
			lo.Client = &http.Client{Transport: handlerTransport{w}}
			s.workers = append(s.workers, w)
		} else {
			name = fmt.Sprintf("remote-%d", i-opt.Backends)
			lo.Addr, lo.Dispatchers = opt.Remotes[i-opt.Backends], opt.RemoteWorkers
		}
		s.backends = append(s.backends, NewLane(name, lo))
	}
	// Pre-register each lane's RED series so a scrape shows the families
	// (with zero values) before the first job lands.
	for _, b := range s.backends {
		s.laneRequests(b.Name(), "ok")
		s.laneSeconds(b.Name())
	}
	for _, rj := range replayed {
		s.jobs[rj.job.ID] = rj.job
		s.order = append(s.order, rj.job.ID)
		if rj.backend >= 0 {
			// The lane name is assigned from the live topology, never from
			// the journal: the ring may have changed shape between crash
			// and restart, and a recorded lane may no longer exist.
			rj.job.backend = s.backends[rj.backend].Name()
			// Cannot fail: the queue was sized for exactly these jobs.
			_ = s.backends[rj.backend].Enqueue(rj.job)
		}
	}
	for _, b := range s.backends {
		b.Start(func(jb *Job) { s.runJobOn(b, jb) })
	}
	s.startLeaseLoop()
	return s, nil
}

// share splits total across n lanes as evenly as possible, never below 1:
// lane i gets the i-th element of the fairest integer partition.
func share(total, n, i int) int {
	v := total / n
	if i < total%n {
		v++
	}
	if v < 1 {
		v = 1
	}
	return v
}

// replayJob pairs a reconstructed job with its routed backend (-1 when the
// job failed validation and is already terminal).
type replayJob struct {
	job     *Job
	backend int
}

// prepareReplay rebuilds journaled jobs and routes them through the live
// ring of lanes lanes in total, returning the jobs plus the per-lane count
// (to size the queues). Routing deliberately ignores whatever lane the journal
// recorded: the topology may have changed between crash and restart (lanes
// added, removed, or renamed), and the consistent hash over the current
// ring is the only authority. A request that no longer validates —
// possible only if the journal was edited or the format drifted — is
// journaled as failed rather than wedging recovery.
func (s *Scheduler) prepareReplay(pending []journal.PendingJob, lanes int) ([]replayJob, []int) {
	perBackend := make([]int, lanes)
	out := make([]replayJob, 0, len(pending))
	for _, p := range pending {
		jb := &Job{ID: p.ID, seqn: p.Seq, state: StateQueued, submitted: time.Now(), replayed: true}
		var err error
		if uerr := json.Unmarshal(p.Request, &jb.req); uerr != nil {
			err = fmt.Errorf("journal replay: %w", uerr)
		} else if jb.spec, jb.flows, err = jb.req.validate(); err != nil {
			err = fmt.Errorf("journal replay: %w", err)
		}
		// The request JSON round-trips the client's traceparent, so a
		// replayed job re-adopts the original trace: its post-crash timeline
		// lands in the same distributed trace the client started.
		jb.initTrace()
		rj := replayJob{job: jb, backend: -1}
		if err != nil {
			jb.state = StateFailed
			jb.err = err
			jb.finished = time.Now()
			_ = s.jrnl.Append(journal.Entry{Seq: p.Seq, Job: jb.ID, Event: journal.EventFailed, Error: err.Error()})
			s.traceRoot(jb)
			s.log.Warn("journal: replayed job failed validation", "job", jb.ID, "err", err)
		} else {
			jb.keys = s.instanceKeys(&jb.req)
			rj.backend = s.ring.pick(routingKey(jb.keys))
			perBackend[rj.backend]++
			s.log.Info("journal: re-queued job", "job", jb.ID, "testcase", jb.spec.Name())
		}
		out = append(out, rj)
	}
	return out, perBackend
}

// instanceKeys returns the canonical cache key of each flow the request
// will run, in flow order.
func (s *Scheduler) instanceKeys(req *JobRequest) []store.Key {
	_, ids, err := req.validate()
	if err != nil {
		return nil
	}
	keys := make([]store.Key, len(ids))
	for i, id := range ids {
		keys[i] = req.instance(id, s.opt.DefaultSolver).Key()
	}
	return keys
}

// routingKey folds a job's per-flow keys into the single string the ring
// hashes, so identical instance sets always route to the same backend.
func routingKey(keys []store.Key) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = string(k)
	}
	return strings.Join(parts, "|")
}

// Shutdown gracefully stops the scheduler: intake closes immediately (new
// submissions get ErrNotAccepting), jobs still waiting in queues are
// canceled, and in-flight jobs are drained to completion. If ctx expires
// first, the in-flight jobs' contexts are canceled and Shutdown waits for
// them to unwind (bounded by one solver/Lloyd iteration), returning ctx's
// error.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		for _, b := range s.backends {
			b.Wait()
		}
		return nil
	}
	s.accepting = false
	for _, b := range s.backends {
		b.Close() // safe: submissions check accepting under mu
	}
	// Queued jobs will still be popped by workers, but cancel them now so
	// the workers skip straight past them.
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		canceled := j.state == StateQueued
		if canceled {
			j.state = StateCanceled
			j.err = errs.ErrCanceled
			j.finished = time.Now()
		}
		j.mu.Unlock()
		if canceled {
			s.journal(j, journal.EventCanceled, errs.ErrCanceled)
			// A job that had started and was then re-queued (reroute, lease
			// expiry) counted a start; going terminal here must count the
			// finish or the inflight gauge leaks one forever.
			if j.countFinish() {
				s.mFinished.Inc()
			}
			s.traceRoot(j)
		}
	}
	s.mu.Unlock()
	// The monitor must not re-route into lanes that just closed; its
	// accepting check makes that impossible, and stopping it here (before
	// waiting on the lanes) means no sweep outlives the scheduler.
	s.stopLeaseLoop()

	done := make(chan struct{})
	go func() {
		for _, b := range s.backends {
			b.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
		_ = s.jrnl.Close()
		return nil
	case <-ctx.Done():
		s.baseCancel() // abort in-flight jobs
		<-done
		_ = s.jrnl.Close()
		return ctx.Err()
	}
}

// SetExec swaps the job-execution function of every in-process lane's
// worker. It exists for tests that need controllable flows (panics,
// transients, slow jobs); production wiring never calls it. Must be called
// before any job runs.
func (s *Scheduler) SetExec(fn ExecFunc) {
	for _, w := range s.workers {
		w.SetExec(fn)
	}
}

// runJobOn executes one attempt of a job on lane b: the lane dispatches it
// to its worker under a lease, and the worker drives the flows on a fresh
// Runner, which is what makes HTTP results byte-identical to library
// results. Transient failures are retried with exponential backoff on the
// same lane; an attempt that is still failing with ErrUnavailable after its
// retries is re-routed through the live ring instead of failing the job.
// Every terminal effect is gated by beginFinish on the attempt's epoch, so
// an attempt the lease monitor re-routed away commits nothing — the
// exactly-once half of the lease protocol.
func (s *Scheduler) runJobOn(b *Lane, jb *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	if jb.req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(jb.req.TimeoutMS)*time.Millisecond)
	}
	defer cancel()
	epoch, ok := jb.claim(cancel)
	if !ok {
		return // canceled while queued
	}
	log := s.log.With("job", jb.ID, "trace_id", jb.TraceID())
	if firstClaim(epoch) {
		s.journal(jb, journal.EventStarted, nil)
	}
	if jb.countStart() {
		s.mStarted.Inc()
	}
	deadline := time.Now().Add(s.opt.LeaseDuration)
	jb.setLease(epoch, deadline)
	s.journalLeased(jb, b.Name(), deadline)
	stopRenew := s.startLeaseRenewal(ctx, jb, epoch, b)
	defer stopRenew()
	log.Debug("job started", "testcase", jb.spec.Name(), "lane", b.Name())
	start := time.Now()

	// This attempt's share of the distributed trace: a dispatch span under
	// the job's root, with the worker's execute span and the flow/solver
	// spans under it (the WireJob carries its traceparent). The records are
	// ingested on every exit path — a failed or re-routed attempt's timeline
	// is part of the job's story — and the dispatch span ends there, once.
	tr := obs.NewTracerFor(procCoordinator)
	tctx := obs.WithSpanContext(obs.WithTracer(ctx, tr), jb.rootSpan())
	dctx, dsp := obs.StartSpanCtx(tctx, "dispatch")
	dsp.SetArg("lane", b.Name())
	dsp.SetArg("epoch", epoch)
	laneOutcome := "ok"
	defer func() {
		dsp.End()
		s.recordLaneAttempt(b.Name(), laneOutcome, time.Since(start))
		s.ingestAttempt(jb, tr.Records())
	}()
	// Solver progress (stage transitions, solver incumbents, k-means
	// iterations) streams into the job's live view when the worker runs in
	// this process; the in-memory transport hands it this context.
	dctx = obs.WithProgress(dctx, jb.noteProgress)

	var res *ExecResult
	var err error
	for attempt := 0; ; attempt++ {
		jb.noteAttempt()
		res, err = b.Execute(dctx, jb)
		if err == nil {
			err = errs.FromContext(ctx) // classify deadline vs cancel post-hoc
		}
		if !s.shouldRetry(ctx, err, attempt) {
			break
		}
		s.mRetries.Inc()
		obs.Instant(dctx, "retry", map[string]any{"attempt": attempt + 1, "err": err.Error()})
		log.Warn("job retrying after transient failure", "attempt", attempt+1, "err", err)
		select {
		case <-time.After(backoff(s.opt.RetryBase, jb.ID, attempt)):
		case <-ctx.Done():
		}
	}
	if err != nil {
		dsp.SetArg("error", err.Error())
	}
	if errors.Is(err, errs.ErrPanic) {
		s.mPanics.Inc()
	}
	if err != nil && ctx.Err() == nil && errors.Is(err, errs.ErrUnavailable) {
		// The lane, not the job, is the problem: move the job elsewhere.
		if s.reroute(jb, epoch) {
			laneOutcome = "rerouted"
			return // a new attempt on another lane owns the job now
		}
	}
	if !jb.beginFinish(epoch) {
		laneOutcome = "rerouted"
		return // re-routed away: a newer epoch owns the job, drop our result
	}
	if cause := jb.takeFailCause(); cause != nil && err != nil {
		err = cause // the lease monitor's verdict, not our cancellation echo
	}
	degraded := false
	if err == nil && res != nil && degradedResults(res.Metrics) {
		degraded = true
		jb.noteDegraded()
		s.mDegraded.Inc()
	}
	if err == nil && res != nil {
		for id, d := range res.Durations {
			s.stats.recordFlow(id, d)
		}
		s.results.Put(&store.Outcome{Job: jb.ID, Metrics: res.Metrics, Placements: res.Placements})
		// Only deterministic results are cacheable: a degraded solve's
		// output depends on wall-clock budgets, so replaying it would break
		// the cache's bit-identity contract.
		if !degraded && jb.req.cacheWrite() && len(jb.keys) == len(jb.flows) {
			for i, id := range jb.flows {
				s.cache.Put(jb.keys[i], store.Entry{Metrics: res.Metrics[id], Placement: res.Placements[id]})
			}
		}
	}
	// Count the finish before the state turns terminal, so a client that
	// sees the job done never reads it as still in flight in /stats.
	if jb.countFinish() {
		s.stats.addBusy(time.Since(start))
		s.mFinished.Inc()
	}
	jb.finish(err)
	s.journal(jb, terminalEvent(jb), err)
	if err != nil {
		laneOutcome = "error"
		log.Warn("job finished with error", "state", terminalEvent(jb), "err", err, "dur", time.Since(start))
	} else {
		log.Info("job done", "dur", time.Since(start))
	}
	s.traceRoot(jb)
}

// shouldRetry allows another attempt only for transient failures, within
// the retry budget, while the job's context is still live. Panics are
// excluded even when the panic value carried a transient error: a panic
// means a bug, and re-running bugs is chaos of the wrong kind.
func (s *Scheduler) shouldRetry(ctx context.Context, err error, attempt int) bool {
	return attempt < s.opt.MaxRetries &&
		err != nil &&
		errors.Is(err, errs.ErrTransient) &&
		!errors.Is(err, errs.ErrPanic) &&
		ctx.Err() == nil
}

// backoff is the delay before retry attempt+1: base·2ᵃᵗᵗᵉᵐᵖᵗ plus a jitter
// in [0, base) derived from the job ID, so concurrent retries de-correlate
// without the schedule becoming nondeterministic for a given job.
func backoff(base time.Duration, jobID string, attempt int) time.Duration {
	h := fnv.New64a()
	_, _ = h.Write([]byte(jobID))
	_, _ = h.Write([]byte{byte(attempt)})
	jitter := time.Duration(h.Sum64() % uint64(base))
	return base<<uint(attempt) + jitter
}

// degradedResults reports whether any flow in the job settled on a lower
// rung of the solve ladder than the proven ILP optimum.
func degradedResults(results map[flow.ID]flow.Metrics) bool {
	for _, m := range results {
		if m.SolveDegraded {
			return true
		}
	}
	return false
}

// journal appends a lifecycle event for jb; a nil journal is a no-op.
// Post-acceptance events are best-effort: losing one means a deterministic
// job may be re-run after a crash, which is safe.
func (s *Scheduler) journal(jb *Job, event string, err error) {
	if s.jrnl == nil {
		return
	}
	e := journal.Entry{Seq: jb.seqn, Job: jb.ID, Event: event}
	if err != nil {
		e.Error = err.Error()
	}
	_ = s.jrnl.Append(e)
}

// terminalEvent maps a finished job's state to its journal event.
func terminalEvent(jb *Job) string {
	switch state, _ := jb.Snapshot(); state {
	case StateCanceled:
		return journal.EventCanceled
	case StateFailed:
		return journal.EventFailed
	default:
		return journal.EventDone
	}
}

// PlacementDigest is the SHA-256 of the design's instance positions in
// instance order, little-endian X then Y. Two runs produce the same digest
// iff every cell landed on the same site — the bit-identity witness the
// solve cache stores and the differential tests compare.
func PlacementDigest(d *netlist.Design) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range d.Positions() {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.X))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(p.Y))
		_, _ = h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Submit validates and enqueues one job, or serves it from the solve cache.
// Errors: validation failures (client errors), ErrQueueFull,
// ErrNotAccepting, or ErrJournal.
func (s *Scheduler) Submit(req JobRequest) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.submitLocked(req)
}

// SubmitBatch submits each request independently under one intake lock, so
// the batch is contiguous in the job ordering. Result slots pair 1:1 with
// requests: each has either a job handle or that request's rejection —
// one oversized or malformed instance does not sink its siblings.
func (s *Scheduler) SubmitBatch(reqs []JobRequest) []BatchItem {
	out := make([]BatchItem, len(reqs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, req := range reqs {
		out[i].Job, out[i].Err = s.submitLocked(req)
	}
	return out
}

// BatchItem is one slot of a SubmitBatch result.
type BatchItem struct {
	Job *Job
	Err error
}

func (s *Scheduler) submitLocked(req JobRequest) (*Job, error) {
	spec, ids, err := req.validate()
	if err != nil {
		return nil, err
	}
	if !s.accepting {
		return nil, ErrNotAccepting
	}
	seq := s.seq.Add(1)
	jb := &Job{
		ID:        fmt.Sprintf("job-%d", seq),
		seqn:      seq,
		state:     StateQueued,
		req:       req,
		flows:     ids,
		spec:      spec,
		submitted: time.Now(),
	}
	jb.keys = make([]store.Key, len(ids))
	for i, id := range ids {
		jb.keys[i] = req.instance(id, s.opt.DefaultSolver).Key()
	}
	jb.initTrace()

	// Cache fast path: when every flow of this instance is resident, the
	// job never touches a queue — it is born terminal, with the cached
	// metrics as its outcome. The journal still records acceptance and
	// completion so replay after a crash mid-append stays consistent.
	if s.cache != nil && req.cacheRead() {
		if entries, ok := s.cache.GetAll(jb.keys); ok {
			s.mCacheHits.Inc()
			if err := s.journalSubmit(jb, req, ""); err != nil {
				return nil, err
			}
			outcome := &store.Outcome{
				Job:        jb.ID,
				Metrics:    make(map[flow.ID]flow.Metrics, len(ids)),
				Placements: make(map[flow.ID]string, len(ids)),
				CacheHit:   true,
			}
			for i, id := range ids {
				outcome.Metrics[id] = entries[i].Metrics
				outcome.Placements[id] = entries[i].Placement
			}
			jb.completeFromCache()
			s.results.Put(outcome)
			s.journal(jb, journal.EventDone, nil)
			s.jobs[jb.ID] = jb
			s.order = append(s.order, jb.ID)
			s.traceInstant(jb, "cache_hit", map[string]any{"flows": len(ids)})
			s.traceRoot(jb)
			s.log.Info("job served from cache", "job", jb.ID, "trace_id", jb.TraceID(), "testcase", spec.Name())
			return jb, nil
		}
		s.mCacheMisses.Inc()
	}

	idx := s.ring.pick(routingKey(jb.keys))
	be := s.backends[idx]
	// Reject over-capacity before journaling: a 429'd job must leave no
	// acceptance record, or a later restart would replay work the client
	// was told we refused. Every Enqueue happens under s.mu, so the room
	// observed here cannot vanish before the send below.
	if be.Depth() >= be.Capacity() {
		return nil, ErrQueueFull
	}
	jb.backend = be.Name()
	if err := s.journalSubmit(jb, req, be.Name()); err != nil {
		return nil, err
	}
	if err := be.Enqueue(jb); err != nil {
		return nil, err
	}
	s.jobs[jb.ID] = jb
	s.order = append(s.order, jb.ID)
	return jb, nil
}

// journalSubmit makes the acceptance record durable before the job becomes
// visible: this is the one journal write whose failure rejects the request,
// because a job we cannot promise to replay is a job we must not accept.
func (s *Scheduler) journalSubmit(jb *Job, req JobRequest, backend string) error {
	if s.jrnl == nil {
		return nil
	}
	raw, err := json.Marshal(req)
	if err == nil {
		err = s.jrnl.Append(journal.Entry{Seq: jb.seqn, Job: jb.ID, Event: journal.EventSubmitted, Request: raw, Backend: backend, Trace: jb.TraceID()})
	}
	if err != nil {
		return fmt.Errorf("%w: %s", ErrJournal, err)
	}
	return nil
}

// Job returns a job by ID (nil when unknown).
func (s *Scheduler) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Views lists every job in submission order.
func (s *Scheduler) Views() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j := s.Job(id); j != nil {
			views = append(views, j.View())
		}
	}
	return views
}

// Cancel requests cancellation of a job. found reports whether the ID is
// known; ok whether the job was still cancelable.
func (s *Scheduler) Cancel(id string) (jb *Job, ok bool) {
	jb = s.Job(id)
	if jb == nil {
		return nil, false
	}
	ok = jb.requestCancel()
	// A job canceled while still queued goes terminal right here, with no
	// worker to journal it; a running one is journaled when it unwinds.
	if state, _ := jb.Snapshot(); ok && state.Terminal() {
		s.journal(jb, journal.EventCanceled, errs.ErrCanceled)
		// The queued job may still have counted a start on an earlier
		// attempt (re-queued by reroute or lease expiry); settle the
		// inflight accounting and close its timeline here, because no
		// runJobOn will ever own it again.
		if jb.countFinish() {
			s.mFinished.Inc()
		}
		s.traceRoot(jb)
	}
	return jb, ok
}

// Outcome returns a finished job's stored result.
func (s *Scheduler) Outcome(id string) (*store.Outcome, bool) {
	return s.results.Get(id)
}

// Accepting reports whether intake is open (false during shutdown).
func (s *Scheduler) Accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepting
}

// BackendStat describes one execution lane for /stats. Addr is empty for
// in-process lanes; RTT and DispatchFailures are omitted while zero.
type BackendStat struct {
	Name     string `json:"name"`
	Depth    int    `json:"depth"`
	Capacity int    `json:"capacity"`
	Workers  int    `json:"workers"`
	// Addr is the remote worker's base URL.
	Addr string `json:"addr,omitempty"`
	// Circuit is the lane's breaker state: closed, open or half-open.
	Circuit string `json:"circuit,omitempty"`
	// HeartbeatRTTms is the last successful heartbeat round trip.
	HeartbeatRTTms float64 `json:"heartbeat_rtt_ms,omitempty"`
	// DispatchFailures counts transport-level dispatch failures.
	DispatchFailures int64 `json:"dispatch_failures,omitempty"`
}

// CacheStat summarises the solve cache for /stats.
type CacheStat struct {
	Enabled  bool  `json:"enabled"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
}

// StatsSnapshot is everything the /stats endpoint reports, gathered in one
// consistent pass.
type StatsSnapshot struct {
	UptimeSeconds float64
	// QueueDepth, QueueCapacity and Workers are sums over the lanes.
	QueueDepth    int
	QueueCapacity int
	Workers       int
	BusyWorkers   int
	Utilization   float64
	PoolJobs      int
	JobCounts     map[State]int
	Started       int64
	Finished      int64
	Inflight      int64
	Degraded      int64
	Retries       int64
	Panics        int64
	// Reroutes counts jobs moved to another lane after a dispatch failure
	// or lease expiry; LeaseExpirations counts leases that lapsed.
	Reroutes         int64
	LeaseExpirations int64
	FlowLatency      map[string]FlowLatency
	Backends         []BackendStat
	Cache            CacheStat
}

// lifecycle reads the job start and finish counters, finished first:
// every finish is counted after its start, so in this order inflight =
// started − finished can over-read by a start that raced the read but can
// never go negative.
func (s *Scheduler) lifecycle() (started, finished, inflight int64) {
	finished = s.mFinished.Value()
	started = s.mStarted.Value()
	return started, finished, started - finished
}

// Stats gathers the full observability snapshot. Every counter is read
// from the scheduler's registry, the series /metrics renders, and every
// capacity is summed over the lanes, the same source as the depths.
func (s *Scheduler) Stats() StatsSnapshot {
	started, finished, inflight := s.lifecycle()
	snap := StatsSnapshot{
		UptimeSeconds:    s.stats.uptime().Seconds(),
		BusyWorkers:      int(inflight),
		PoolJobs:         s.pool.Jobs(),
		JobCounts:        map[State]int{},
		Started:          started,
		Finished:         finished,
		Inflight:         inflight,
		Degraded:         s.mDegraded.Value(),
		Retries:          s.mRetries.Value(),
		Panics:           s.mPanics.Value(),
		Reroutes:         s.mReroutes.Value(),
		LeaseExpirations: s.mLeaseExp.Value(),
		Cache: CacheStat{
			Enabled:  s.cache != nil,
			Entries:  s.cache.Len(),
			Capacity: s.cache.Capacity(),
		},
	}
	if s.cache != nil {
		snap.Cache.Hits, snap.Cache.Misses = s.mCacheHits.Value(), s.mCacheMisses.Value()
	}
	s.mu.Lock()
	for _, b := range s.backends {
		bs := BackendStat{
			Name: b.Name(), Depth: b.Depth(), Capacity: b.Capacity(), Workers: b.Workers(),
			Addr: b.Addr(), Circuit: b.CircuitState(),
			HeartbeatRTTms: b.rtt.Value() * 1e3, DispatchFailures: b.fails.Value(),
		}
		snap.QueueDepth += bs.Depth
		snap.QueueCapacity += bs.Capacity
		snap.Workers += bs.Workers
		snap.Backends = append(snap.Backends, bs)
	}
	for _, id := range s.order {
		st, _ := s.jobs[id].Snapshot()
		snap.JobCounts[st]++
	}
	s.mu.Unlock()
	snap.Utilization, snap.FlowLatency = s.stats.snapshot(snap.Workers)
	return snap
}

// Resilience returns the degraded/retries/panics counters (test seam).
func (s *Scheduler) Resilience() (degraded, retries, panics int64) {
	return s.mDegraded.Value(), s.mRetries.Value(), s.mPanics.Value()
}

// WriteProm renders the scheduler's private metric registry in Prometheus
// text exposition format, refreshing the inflight gauge first. The caller
// (transport) appends obs.Default for the process-wide series.
func (s *Scheduler) WriteProm(w io.Writer) error {
	_, _, inflight := s.lifecycle()
	s.mInflight.Set(float64(inflight))
	return s.reg.WriteProm(w)
}

// Cache exposes the solve cache (nil when disabled) for tests and stats.
func (s *Scheduler) Cache() *store.Cache { return s.cache }
