package scheduler

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/obs"
	"mthplace/internal/par"
)

// Worker API paths, served by WorkerHandler (in process, or by a peer
// mthserved -worker); a Lane is their only intended client.
const (
	// WorkerExecutePath accepts a POSTed WireJob, runs it synchronously,
	// and answers with a WireResult. Canceling the request cancels the job.
	WorkerExecutePath = "/worker/v1/execute"
	// WorkerPingPath is the heartbeat: 200 means the worker is alive and
	// parsing requests, whatever its current load. The response carries an
	// X-Worker-Time-US header (worker wall clock, unix microseconds) the
	// coordinator folds with the measured RTT into a clock-skew estimate.
	WorkerPingPath = "/worker/v1/ping"
	// WorkerSpansPath drains span batches for jobs whose WireResult never
	// reached the coordinator — a leased-then-rerouted job's worker-side
	// spans are stashed and collected here by the heartbeat prober.
	WorkerSpansPath = "/worker/v1/spans"
)

// WorkerTimeHeader carries the worker's wall clock (unix microseconds) on
// ping responses, the input to the coordinator's clock-skew correction.
const WorkerTimeHeader = "X-Worker-Time-US"

// WireJob is the dispatch body: the coordinator-assigned job ID (for log
// correlation on the worker) plus the original request. The worker re-runs
// validation — the two processes may disagree about testcase tables only if
// their binaries drifted, which should fail loudly.
type WireJob struct {
	ID  string     `json:"id"`
	Req JobRequest `json:"req"`
	// Traceparent is the coordinator's dispatch-span context in W3C form;
	// the worker re-extracts it so its solver-stage spans parent under the
	// dispatch span and share the job's TraceID. Empty disables worker-side
	// span collection (no trace context means nobody will merge them).
	Traceparent string `json:"traceparent,omitempty"`
}

// WireResult is the execute response. Exactly one of {Metrics+Placements,
// Error} is populated; transport-level problems never use this shape (they
// surface as non-200 statuses or broken bodies). Class carries the error's
// taxonomy so the coordinator can rebuild a typed error that errors.Is
// still classifies after the round trip.
type WireResult struct {
	Metrics    map[flow.ID]flow.Metrics `json:"metrics,omitempty"`
	Placements map[flow.ID]string       `json:"placements,omitempty"`
	// Durations is each flow's run time, for the coordinator's /stats
	// flow_latency.
	Durations map[flow.ID]time.Duration `json:"durations_ns,omitempty"`
	Error     string                    `json:"error,omitempty"`
	Class     string                    `json:"class,omitempty"`
	// Spans piggybacks the worker's trace records for this execution —
	// present on errored results too (a failed attempt's timeline is part
	// of the job's story). Timestamps are the worker's clock; the
	// coordinator skew-corrects them on ingest.
	Spans []obs.SpanRecord `json:"spans,omitempty"`
}

// WireSpanBatch is one job's stashed span set, drained from
// /worker/v1/spans when its WireResult never made it back.
type WireSpanBatch struct {
	Job   string           `json:"job"`
	Spans []obs.SpanRecord `json:"spans"`
}

// Error-class wire names (WireResult.Class).
const (
	ClassPanic      = "panic"
	ClassInfeasible = "infeasible"
	ClassTimeout    = "timeout"
	ClassCanceled   = "canceled"
	ClassTransient  = "transient"
	ClassError      = "error"
)

// ErrorClass names err's place in the errs taxonomy for the wire. Order
// matters: a panic that carried a transient error must still class as a
// panic, or the coordinator would retry a bug.
func ErrorClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errs.ErrPanic):
		return ClassPanic
	case errors.Is(err, errs.ErrInfeasible):
		return ClassInfeasible
	case errors.Is(err, errs.ErrTimeout):
		return ClassTimeout
	case errors.Is(err, errs.ErrCanceled):
		return ClassCanceled
	case errors.Is(err, errs.ErrTransient):
		return ClassTransient
	default:
		return ClassError
	}
}

// errorFromClass rebuilds a typed error from its wire form, so the
// coordinator's retry and status-code logic treats a remote failure exactly
// like a local one. Unknown classes degrade to an untyped error.
func errorFromClass(class, msg string) error {
	switch class {
	case "":
		return nil
	case ClassPanic:
		return fmt.Errorf("%s: %w", msg, errs.ErrPanic)
	case ClassInfeasible:
		return fmt.Errorf("%s: %w", msg, errs.ErrInfeasible)
	case ClassTimeout:
		return fmt.Errorf("%s: %w", msg, errs.ErrTimeout)
	case ClassCanceled:
		return fmt.Errorf("%s: %w", msg, errs.ErrCanceled)
	case ClassTransient:
		return fmt.Errorf("%s: %w", msg, errs.ErrTransient)
	default:
		return errors.New(msg)
	}
}

// RunRequest executes one job request's flows sequentially on a fresh
// Runner, exactly like a direct flow.Runner caller would — the worker's
// default ExecFunc, which is what makes a job's metrics byte-identical to a
// library run's on any lane. pool may be nil (each flow then gets the
// runner default). The result records each flow's completion latency;
// onFlow, when non-nil, also observes it as each flow finishes.
func RunRequest(ctx context.Context, req JobRequest, pool *par.Pool, defaultSolver string, onFlow func(flow.ID, time.Duration)) (*ExecResult, error) {
	spec, ids, err := req.validate()
	if err != nil {
		return nil, err
	}
	cfg := req.config(pool, defaultSolver)
	r, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		return nil, err
	}
	out := &ExecResult{
		Metrics:    make(map[flow.ID]flow.Metrics, len(ids)),
		Placements: make(map[flow.ID]string, len(ids)),
		Durations:  make(map[flow.ID]time.Duration, len(ids)),
	}
	for _, id := range ids {
		t0 := time.Now()
		res, err := r.Run(ctx, id, req.Route)
		if err != nil {
			return nil, err
		}
		out.Metrics[id] = res.Metrics
		out.Placements[id] = PlacementDigest(res.Design)
		out.Durations[id] = time.Since(t0)
		if onFlow != nil {
			onFlow(id, out.Durations[id])
		}
	}
	return out, nil
}
