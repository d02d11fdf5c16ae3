// The worker API: the execution side of every lane. A worker runs the
// placement jobs a lane dispatches to it and answers the lane's heartbeats.
// mthserved -worker serves one over HTTP for a coordinator's remote lanes;
// the scheduler builds one per in-process lane and calls it through an
// in-memory transport, so every job runs through this handler.
//
// The API is deliberately tiny and synchronous. POST /worker/v1/execute
// carries one WireJob; the worker runs it to completion on the request's
// own context — so the coordinator canceling or abandoning the request
// cancels the job, which is the whole cancellation protocol — and answers
// with a WireResult. There is no worker-side queue, no worker-side journal
// and no worker-side retry: the coordinator owns the job lifecycle (leases,
// retries, re-routes, exactly-once commitment), and the worker owns nothing
// but the flows it is currently running. A worker at its concurrency limit
// answers 503 + Retry-After rather than queueing, which keeps the
// coordinator's queue-depth accounting the only backlog in the system.
package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/obs"
	"mthplace/internal/par"
)

// maxBody bounds the execute request body; a WireJob is small, so anything
// near this is garbage.
const maxBody = 4 << 20

// WorkerOptions tunes a worker.
type WorkerOptions struct {
	// Slots is the number of jobs run concurrently (default 2); dispatches
	// beyond it get 503 + Retry-After.
	Slots int
	// PoolJobs bounds the shared solver pool jobs without a private Jobs
	// setting draw from (default GOMAXPROCS).
	PoolJobs int
	// DefaultSolver is applied to requests that name none.
	DefaultSolver string
	// Logger receives per-job diagnostics. Nil discards them.
	Logger *slog.Logger
}

// WorkerHandler serves the worker API.
type WorkerHandler struct {
	mux    *http.ServeMux
	sem    chan struct{}
	pool   *par.Pool
	solver string
	log    *slog.Logger
	exec   atomic.Pointer[ExecFunc]

	reg      *obs.Registry
	mJobs    *obs.Counter
	mErrors  *obs.Counter
	mRefused *obs.Counter

	stash spanRing // spans whose WireResult never reached the coordinator
}

// maxStashedBatches bounds the undelivered-span stash; a coordinator that
// never drains (or never returns) must not grow worker memory without
// bound, so the oldest batches are dropped first.
const maxStashedBatches = 256

// spanRing holds span batches for jobs whose execute response could not be
// delivered — the coordinator went away mid-run (lease expiry, reroute,
// crash). The prober drains it via GET /worker/v1/spans so those timelines
// still reach the merged trace.
type spanRing struct {
	mu      sync.Mutex
	batches []WireSpanBatch
}

func (s *spanRing) put(job string, spans []obs.SpanRecord) {
	if len(spans) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) >= maxStashedBatches {
		s.batches = s.batches[1:]
	}
	s.batches = append(s.batches, WireSpanBatch{Job: job, Spans: spans})
}

// take removes and returns every stashed batch.
func (s *spanRing) take() []WireSpanBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.batches
	s.batches = nil
	return out
}

// NewWorker builds a worker handler with its own solver pool.
func NewWorker(opt WorkerOptions) *WorkerHandler {
	if opt.PoolJobs <= 0 {
		opt.PoolJobs = runtime.GOMAXPROCS(0)
	}
	return newWorker(opt, par.NewPool(opt.PoolJobs))
}

// newWorker builds a worker handler that draws on pool; an in-process lane
// passes the scheduler's, so PoolJobs stays one bound over every lane.
func newWorker(opt WorkerOptions, pool *par.Pool) *WorkerHandler {
	if opt.Slots <= 0 {
		opt.Slots = 2
	}
	if opt.Logger == nil {
		opt.Logger = obs.Nop()
	}
	h := &WorkerHandler{
		mux:    http.NewServeMux(),
		sem:    make(chan struct{}, opt.Slots),
		pool:   pool,
		solver: opt.DefaultSolver,
		log:    opt.Logger,
		reg:    obs.NewRegistry(),
	}
	h.mJobs = h.reg.Counter("worker_jobs_total", "Jobs executed by this worker since start.", nil)
	h.mErrors = h.reg.Counter("worker_job_errors_total", "Executed jobs that ended in an error.", nil)
	h.mRefused = h.reg.Counter("worker_refused_total", "Dispatches refused because every slot was busy.", nil)
	h.SetExec(func(ctx context.Context, req JobRequest) (*ExecResult, error) {
		return RunRequest(ctx, req, h.pool, h.solver, nil)
	})
	h.mux.HandleFunc("POST "+WorkerExecutePath, h.handleExecute)
	h.mux.HandleFunc("GET "+WorkerPingPath, h.handlePing)
	h.mux.HandleFunc("GET "+WorkerSpansPath, h.handleSpans)
	return h
}

// SetExec swaps the execution function. Test seam; call before serving.
func (h *WorkerHandler) SetExec(fn ExecFunc) { h.exec.Store(&fn) }

// ServeHTTP implements http.Handler.
func (h *WorkerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// MetricsHandler serves the worker's private metric registry.
func (h *WorkerHandler) MetricsHandler() http.Handler { return h.reg.Handler() }

func (h *WorkerHandler) handlePing(w http.ResponseWriter, _ *http.Request) {
	// The clock stamp lets the coordinator estimate this worker's skew from
	// the ping RTT, which is how worker span timestamps land correctly on
	// the merged timeline.
	w.Header().Set(WorkerTimeHeader, fmt.Sprintf("%d", time.Now().UnixMicro()))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleSpans drains the undelivered-span stash to the coordinator's
// prober. The response is a JSON array of WireSpanBatch.
func (h *WorkerHandler) handleSpans(w http.ResponseWriter, _ *http.Request) {
	batches := h.stash.take()
	if batches == nil {
		batches = []WireSpanBatch{}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(batches); err != nil {
		// The drain request died; put the batches back for the next one.
		for _, b := range batches {
			h.stash.put(b.Job, b.Spans)
		}
	}
}

func (h *WorkerHandler) handleExecute(w http.ResponseWriter, r *http.Request) {
	var wj WireJob
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody))
	if err == nil {
		err = json.Unmarshal(body, &wj)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad dispatch body: %v", err), http.StatusBadRequest)
		return
	}
	select {
	case h.sem <- struct{}{}:
		defer func() { <-h.sem }()
	default:
		// Full slots: refuse instead of queueing, so backlog lives only at
		// the coordinator. Retry-After matches the transport's convention.
		h.mRefused.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "worker at capacity", http.StatusServiceUnavailable)
		return
	}
	h.mJobs.Inc()
	start := time.Now()
	log := h.log
	ctx := r.Context()
	// A dispatch carrying trace context gets a tracer: the execute span and
	// the flow/solver spans underneath it parent into the coordinator's
	// dispatch span and share the job's TraceID. No traceparent, no tracer —
	// nobody would merge the records.
	var tr *obs.Tracer
	var esp *obs.Span
	if sc, ok := obs.ParseTraceparent(wj.Traceparent); ok {
		log = h.log.With("trace_id", sc.TraceID)
		tr = obs.NewTracer() // Proc is stamped with the lane name on ingest
		ctx = obs.WithTracer(obs.WithSpanContext(ctx, sc), tr)
		ctx, esp = obs.StartSpanCtx(ctx, "execute")
		esp.SetArg("job", wj.ID)
	}
	log.Debug("worker: job accepted", "job", wj.ID, "testcase", wj.Req.Testcase)
	res, err := h.safeExec(ctx, log, wj)
	if err == nil {
		err = errs.FromContext(r.Context())
	}
	out := WireResult{}
	if err != nil {
		h.mErrors.Inc()
		out.Error = err.Error()
		out.Class = ErrorClass(err)
		log.Warn("worker: job failed", "job", wj.ID, "class", out.Class, "err", err, "dur", time.Since(start))
	} else {
		if res != nil {
			out.Metrics, out.Placements, out.Durations = res.Metrics, res.Placements, res.Durations
		}
		log.Debug("worker: job done", "job", wj.ID, "dur", time.Since(start))
	}
	if tr != nil {
		if err != nil {
			esp.SetArg("error", out.Class)
		}
		esp.End()
		out.Spans = tr.Records()
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil && !errors.Is(err, context.Canceled) {
		log.Warn("worker: response write failed", "job", wj.ID, "err", err)
	} else if err == nil && r.Context().Err() == nil {
		return // delivered: the spans rode the WireResult
	}
	// The coordinator never saw this result (connection gone or context
	// dead): stash the spans for the heartbeat drain so a rerouted job's
	// worker-side timeline still reaches the merged trace.
	if tr != nil {
		h.stash.put(wj.ID, out.Spans)
	}
}

// safeExec runs the job behind the fabric's one recover boundary: a
// panicking job must cost exactly one errored WireResult, never the worker
// or the coordinator. The panic class survives the wire, so the
// coordinator counts it and refuses to retry it.
func (h *WorkerHandler) safeExec(ctx context.Context, log *slog.Logger, wj WireJob) (res *ExecResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = errs.FromPanic(rec, "worker: job %s", wj.ID)
		}
	}()
	ctx = obs.WithLogger(ctx, log.With("job", wj.ID))
	solver := wj.Req.Solver
	if solver == "" {
		solver = h.solver
	}
	// Label the solver goroutines so a CPU profile attributes its samples
	// to the job and solver that burned them.
	exec := *h.exec.Load()
	pprof.Do(ctx, pprof.Labels("job", wj.ID, "solver", solver), func(ctx context.Context) {
		res, err = exec(ctx, wj.Req)
	})
	return res, err
}
