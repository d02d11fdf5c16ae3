package store

import (
	"sync"

	"mthplace/internal/obs"
)

// Trace-store bounds. Jobs are evicted FIFO like Results; the per-job
// record cap guards against a pathological solver attempt flooding the
// store (a normal job records a few dozen spans).
const (
	// DefaultTraceCapacity bounds how many jobs' span sets are retained.
	DefaultTraceCapacity = 4096
	// maxRecordsPerJob bounds one job's merged span set.
	maxRecordsPerJob = 4096
)

// Traces is the coordinator's per-job span set: every process's records for
// one job — coordinator dispatch spans, worker solver spans (piggybacked on
// WireResult or drained later from /worker/v1/spans), and scheduler instant
// events — accumulate here and are merged into one Chrome timeline by
// GET /v1/jobs/{id}/trace. Bounded FIFO over jobs, like Results: old jobs'
// traces are evicted in insertion order once DefaultTraceCapacity jobs are
// held.
type Traces struct {
	mu    sync.Mutex
	m     map[string][]obs.SpanRecord
	order []string
}

// NewTraces builds a trace store holding at most DefaultTraceCapacity jobs.
func NewTraces() *Traces {
	return &Traces{m: make(map[string][]obs.SpanRecord)}
}

// Add appends records to job's span set, evicting the oldest job if job is
// new and the store is full. Records past the per-job cap are dropped —
// a truncated trace beats an unbounded one.
func (t *Traces) Add(job string, recs ...obs.SpanRecord) {
	if t == nil || job == "" || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[job]; !ok {
		if len(t.order) >= DefaultTraceCapacity {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.m, oldest)
		}
		t.order = append(t.order, job)
	}
	have := t.m[job]
	room := maxRecordsPerJob - len(have)
	if room <= 0 {
		return
	}
	if len(recs) > room {
		recs = recs[:room]
	}
	t.m[job] = append(have, recs...)
}

// Get returns a copy of job's span set (nil when unknown or evicted).
func (t *Traces) Get(job string) []obs.SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	recs := t.m[job]
	if recs == nil {
		return nil
	}
	return append([]obs.SpanRecord(nil), recs...)
}

// Len reports how many jobs currently have stored spans.
func (t *Traces) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}
