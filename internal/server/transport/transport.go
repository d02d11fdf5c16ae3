// Package transport is the HTTP/JSON edge of the placement service. It
// owns routing, status-code mapping, header conventions and wire shapes —
// and nothing else: every decision about running jobs lives behind the
// scheduler's exported API, so this package can be replaced (gRPC, CLI)
// without touching execution semantics.
//
// Endpoints are versioned under /v1/; the original unversioned paths are
// registered as exact aliases so pre-versioning clients keep working:
//
//	POST   /v1/jobs              submit (202 + id; 429 queue full; 400 bad request)
//	POST   /v1/jobs:batch        submit N instances, get N job handles
//	GET    /v1/jobs              list all jobs
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/result  metrics (409 until terminal; 422/504/499 on failure)
//	POST   /v1/jobs/{id}/cancel  cancel queued or running job (also DELETE /v1/jobs/{id})
//	GET    /healthz              liveness + intake state
//	GET    /stats                queues, cache, per-flow latency percentiles
//	GET    /metrics              Prometheus text exposition
//
// Cache control: a submit may carry the standard Cache-Control request
// header — "no-cache" always solves fresh (but stores the result),
// "no-store" may be served from cache but leaves none behind, and both
// together disable the cache for the job. The body's "cache" field, when
// set, wins over the header. Submit responses carry X-Cache: HIT or MISS.
package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/obs"
	"mthplace/internal/server/scheduler"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose work was canceled by the client; net/http has no constant for it.
const StatusClientClosedRequest = 499

// maxBatch bounds one batch submission; a bigger fleet should be split so
// no single request can occupy the whole intake queue.
const maxBatch = 256

// API serves the scheduler over HTTP.
type API struct {
	sched *scheduler.Scheduler
}

// New wraps a scheduler with the HTTP edge.
func New(s *scheduler.Scheduler) *API {
	return &API{sched: s}
}

// Handler returns the full route table: /v1/ plus the unversioned aliases.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, prefix := range []string{"/v1", ""} {
		mux.HandleFunc("POST "+prefix+"/jobs", a.handleSubmit)
		mux.HandleFunc("GET "+prefix+"/jobs", a.handleList)
		mux.HandleFunc("GET "+prefix+"/jobs/{id}", a.handleStatus)
		mux.HandleFunc("GET "+prefix+"/jobs/{id}/result", a.handleResult)
		mux.HandleFunc("GET "+prefix+"/jobs/{id}/trace", a.handleTrace)
		mux.HandleFunc("POST "+prefix+"/jobs/{id}/cancel", a.handleCancel)
		mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", a.handleCancel)
	}
	// The batch verb exists only under /v1/ — it postdates versioning.
	mux.HandleFunc("POST /v1/jobs:batch", a.handleBatch)
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("GET /stats", a.handleStats)
	mux.HandleFunc("GET /metrics", a.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// submitStatus maps a scheduler submission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusAccepted
	case errors.Is(err, scheduler.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, scheduler.ErrNotAccepting):
		return http.StatusServiceUnavailable
	case errors.Is(err, scheduler.ErrJournal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// RetryAfterSeconds is the hint sent with backpressure rejections (429
// queue-full, 503 shutting-down): the smallest interval the header's
// whole-seconds granularity can express. Clients with finer clocks may
// treat it as an upper bound.
const RetryAfterSeconds = 1

// retryable reports whether a submit rejection is worth retrying as-is —
// backpressure, not a request defect.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// applyRetryAfter stamps the Retry-After header on backpressure statuses,
// so clients (pkg/mth among them) can pace resubmission instead of
// hammering a full queue.
func applyRetryAfter(w http.ResponseWriter, status int) {
	if retryable(status) {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
	}
}

// applyCacheHeader folds the request's Cache-Control header into the job's
// cache directive. The body field wins when both are present: it is the
// more deliberate signal, and replays of journaled bodies must not depend
// on headers that were never journaled.
func applyCacheHeader(req *scheduler.JobRequest, header string) {
	if req.Cache != scheduler.CacheDefault || header == "" {
		return
	}
	h := strings.ToLower(header)
	noCache := strings.Contains(h, "no-cache")
	noStore := strings.Contains(h, "no-store")
	switch {
	case noCache && noStore:
		req.Cache = scheduler.CacheOff
	case noCache:
		req.Cache = scheduler.CacheBypass
	case noStore:
		req.Cache = scheduler.CacheNoStore
	}
}

func decodeStrict(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// applyTraceparent folds the W3C traceparent header into the job request,
// so the job's distributed trace continues the client's. The body field
// wins when both are present, for the same journaling reason as the cache
// directive; a malformed header is ignored (tracing must never reject a
// job).
func applyTraceparent(req *scheduler.JobRequest, header string) {
	if req.Traceparent != "" || header == "" {
		return
	}
	if _, ok := obs.ParseTraceparent(header); ok {
		req.Traceparent = header
	}
}

func (a *API) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req scheduler.JobRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	applyCacheHeader(&req, r.Header.Get("Cache-Control"))
	applyTraceparent(&req, r.Header.Get("traceparent"))
	jb, err := a.sched.Submit(req)
	if err != nil {
		status := submitStatus(err)
		applyRetryAfter(w, status)
		writeError(w, status, err.Error())
		return
	}
	view := jb.View()
	if view.CacheHit {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	writeJSON(w, http.StatusAccepted, view)
}

// batchRequest is the POST /v1/jobs:batch body.
type batchRequest struct {
	Jobs []scheduler.JobRequest `json:"jobs"`
}

// batchSlot is one element of the batch response, paired 1:1 with the
// submitted jobs: an accepted slot carries the job view, a rejected one
// carries the error and the status the same request would have gotten from
// the single-submit endpoint.
type batchSlot struct {
	Job    *scheduler.JobView `json:"job,omitempty"`
	Error  string             `json:"error,omitempty"`
	Status int                `json:"status,omitempty"`
}

func (a *API) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeStrict(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch needs at least one job")
		return
	}
	if len(req.Jobs) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Jobs), maxBatch))
		return
	}
	header := r.Header.Get("Cache-Control")
	tp := r.Header.Get("traceparent")
	for i := range req.Jobs {
		applyCacheHeader(&req.Jobs[i], header)
		applyTraceparent(&req.Jobs[i], tp)
	}
	items := a.sched.SubmitBatch(req.Jobs)
	slots := make([]batchSlot, len(items))
	accepted := 0
	for i, it := range items {
		if it.Err != nil {
			slots[i] = batchSlot{Error: it.Err.Error(), Status: submitStatus(it.Err)}
			continue
		}
		v := it.Job.View()
		slots[i] = batchSlot{Job: &v}
		accepted++
	}
	status := http.StatusAccepted
	switch accepted {
	case len(items): // all in
	case 0:
		status = slots[0].Status // uniform rejection: surface the first cause
	default:
		status = http.StatusMultiStatus
	}
	applyRetryAfter(w, status)
	writeJSON(w, status, map[string]any{
		"jobs":     slots,
		"accepted": accepted,
		"rejected": len(items) - accepted,
	})
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": a.sched.Views()})
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := a.sched.Job(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, jb.View())
}

// handleTrace serves the job's merged multi-process timeline as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto). 404 covers
// both unknown jobs and evicted traces; an in-flight job serves whatever
// records have landed so far.
func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if a.sched.Job(id) == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	recs := a.sched.TraceRecords(id)
	if len(recs) == 0 {
		writeError(w, http.StatusNotFound, "no trace recorded for job (evicted or not yet started)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, recs)
}

// errStatus maps a flow failure to its HTTP status: infeasible instances
// are a client problem (422), deadline expiry is 504, client-requested
// cancellation is 499, a job no live backend would take is 503, anything
// else is a 500.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errs.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, errs.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, errs.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, errs.ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (a *API) handleResult(w http.ResponseWriter, r *http.Request) {
	jb := a.sched.Job(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	state, err := jb.Snapshot()
	if !state.Terminal() {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", RetryAfterSeconds))
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; poll again later", state))
		return
	}
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	out, ok := a.sched.Outcome(jb.ID)
	if !ok {
		writeError(w, http.StatusGone, "result evicted from the store; resubmit the job")
		return
	}
	keyed := make(map[string]flow.Metrics, len(out.Metrics))
	for id, m := range out.Metrics {
		keyed[fmt.Sprintf("%d", int(id))] = m
	}
	placements := make(map[string]string, len(out.Placements))
	for id, d := range out.Placements {
		placements[fmt.Sprintf("%d", int(id))] = d
	}
	if out.CacheHit {
		w.Header().Set("X-Cache", "HIT")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         jb.ID,
		"metrics":    keyed,
		"placements": placements,
		"cache_hit":  out.CacheHit,
	})
}

func (a *API) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := a.sched.Cancel(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if !ok {
		writeError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusOK, jb.View())
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	accepting := a.sched.Accepting()
	status := http.StatusOK
	if !accepting {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ok": accepting, "accepting": accepting})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.sched.Stats())
}

// MetricsHandler returns the /metrics endpoint standalone, for mounting on
// a separate debug listener alongside pprof.
func (a *API) MetricsHandler() http.Handler {
	return http.HandlerFunc(a.handleMetrics)
}

// handleMetrics renders the scheduler's registry followed by the
// process-wide default registry (flow stage histograms, solve counters) in
// Prometheus text exposition format.
func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = a.sched.WriteProm(w)
	_ = obs.Default.WriteProm(w)
}
