// Coordinator-side distributed tracing: per-job span accumulation, the
// terminal root span, instant events for fabric incidents (reroutes, lease
// expiries, retries, cache hits), and the merged Chrome trace_event export
// behind GET /v1/jobs/{id}/trace. Span records arrive from three sources —
// the per-attempt coordinator tracer, WireResult piggybacks, and the
// prober's /worker/v1/spans drain — and all land in the bounded store.Traces
// keyed by job ID.
package scheduler

import (
	"time"

	"mthplace/internal/obs"
)

// procCoordinator labels coordinator-produced span records in the merged
// timeline; worker records are re-labelled with their lane name on ingest.
const procCoordinator = "coordinator"

// TraceRecords returns the job's accumulated span records (nil when the job
// is unknown or its trace was evicted).
func (s *Scheduler) TraceRecords(id string) []obs.SpanRecord {
	return s.traces.Get(id)
}

// ingestAttempt stores one attempt's coordinator-side records.
func (s *Scheduler) ingestAttempt(jb *Job, recs []obs.SpanRecord) {
	s.traces.Add(jb.ID, recs...)
}

// traceInstant records a point-in-time fabric incident (reroute, lease
// expiry, cache hit) on the job's timeline, parented under the root span.
func (s *Scheduler) traceInstant(jb *Job, name string, args map[string]any) {
	sc := jb.rootSpan()
	s.traces.Add(jb.ID, obs.SpanRecord{
		TraceID: sc.TraceID,
		Parent:  sc.SpanID,
		Name:    name,
		Proc:    procCoordinator,
		Kind:    "instant",
		StartUS: time.Now().UnixMicro(),
		Args:    args,
	})
}

// traceRoot records the job's single terminal root span — "job", spanning
// submitted→finished, parented under the client's span when the submission
// carried a traceparent. Every terminal path calls it; the rootTraced latch
// makes the first caller the only writer, so a merged trace has exactly one
// root whatever raced.
func (s *Scheduler) traceRoot(jb *Job) {
	if !jb.markRootTraced() {
		return
	}
	jb.mu.Lock()
	rec := obs.SpanRecord{
		TraceID: jb.trace.TraceID,
		SpanID:  jb.trace.SpanID,
		Parent:  jb.traceParent,
		Name:    "job",
		Proc:    procCoordinator,
		Kind:    "span",
		StartUS: jb.submitted.UnixMicro(),
		Args: map[string]any{
			"job":   jb.ID,
			"state": string(jb.state),
		},
	}
	if jb.spec.Circuit != "" { // zero when the request never validated (bad replay)
		rec.Args["testcase"] = jb.spec.Name()
	}
	if !jb.finished.IsZero() {
		rec.DurUS = jb.finished.Sub(jb.submitted).Microseconds()
	}
	if jb.backend != "" {
		rec.Args["backend"] = jb.backend
	}
	if jb.reroutes > 0 {
		rec.Args["reroutes"] = jb.reroutes
	}
	if jb.cacheHit {
		rec.Args["cache_hit"] = true
	}
	jb.mu.Unlock()
	s.traces.Add(jb.ID, rec)
}

// Per-lane RED metrics: request rate (by outcome), errors, and duration.
// Series live in the scheduler's private registry next to the job counters.
const (
	laneRequestsName = "mth_lane_requests_total"
	laneSecondsName  = "mth_lane_seconds"
)

// laneRequests counts one lane attempt with its outcome ("ok", "error",
// "rerouted").
func (s *Scheduler) laneRequests(backend, outcome string) *obs.Counter {
	return s.reg.Counter(laneRequestsName,
		"Job attempts per execution lane, by outcome (ok, error, rerouted).",
		obs.Labels{"backend": backend, "outcome": outcome})
}

// laneSeconds observes one lane attempt's wall-clock duration.
func (s *Scheduler) laneSeconds(backend string) *obs.Histogram {
	return s.reg.Histogram(laneSecondsName,
		"Wall-clock seconds per job attempt, by execution lane.",
		obs.StageBuckets, obs.Labels{"backend": backend})
}

// recordLaneAttempt folds one lane attempt into the RED series. Exactly one
// call per runJobOn invocation, whatever path it exits through, so the lane
// histogram count equals the lane request count by construction — the
// agreement invariant the replay regression test pins.
func (s *Scheduler) recordLaneAttempt(backend, outcome string, dur time.Duration) {
	s.laneRequests(backend, outcome).Inc()
	s.laneSeconds(backend).Observe(dur.Seconds())
}

// ingestWorkerSpans is the Remote lanes' OnSpans sink: worker records for
// job land here, already skew-corrected and lane-labelled by the Remote.
func (s *Scheduler) ingestWorkerSpans(job string, spans []obs.SpanRecord) {
	s.traces.Add(job, spans...)
}
