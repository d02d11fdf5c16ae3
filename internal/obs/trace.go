package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects spans and instant events for one process's share of a
// trace. Records are wall-clock anchored (unix microseconds) so traces
// gathered on different machines can be merged onto one timeline after
// clock-skew correction; the Chrome trace_event export (WriteJSON,
// WriteChromeTrace) rebases onto the earliest record, so single-process
// output still starts at ts 0. All methods are safe for concurrent use.
type Tracer struct {
	proc string

	mu   sync.Mutex
	recs []SpanRecord
}

// SpanRecord is one trace record in the distributed schema shared by
// rcplace -trace files, WireResult span piggybacks, and the coordinator's
// per-job span store. Kind "span" records carry a duration; Kind "instant"
// records are point-in-time markers (reroutes, retries, incumbents).
type SpanRecord struct {
	// TraceID groups every record of one job across processes.
	TraceID string `json:"trace_id,omitempty"`
	// SpanID names this span; instants have none.
	SpanID string `json:"span_id,omitempty"`
	// Parent is the SpanID this record nests under ("" for a root).
	Parent string `json:"parent_id,omitempty"`
	Name   string `json:"name"`
	// Proc is the producing process/lane ("coordinator", "worker",
	// "remote-0", "rcplace") — the Chrome export maps it to a pid row.
	Proc string `json:"proc,omitempty"`
	// Kind is "span" (timed region) or "instant".
	Kind string `json:"kind"`
	// StartUS is the record's wall-clock start, unix microseconds.
	StartUS int64 `json:"start_us"`
	// DurUS is the span duration in microseconds, at least 1 for spans
	// (0 for instants).
	DurUS int64          `json:"dur_us,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// NewTracer starts an empty trace for an unnamed process.
func NewTracer() *Tracer { return NewTracerFor("") }

// NewTracerFor starts an empty trace whose records are attributed to the
// named process ("coordinator", "worker", "rcplace").
func NewTracerFor(proc string) *Tracer { return &Tracer{proc: proc} }

// WithTracer installs tr as the context's tracer.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, tr)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey).(*Tracer)
	return tr
}

// Span is one timed region of a trace. The zero of a disabled trace is a
// nil *Span: every method is nil-safe, so instrumented code never checks
// whether tracing is on.
type Span struct {
	tr     *Tracer
	name   string
	start  time.Time
	sc     SpanContext
	parent string
	args   map[string]any
}

// StartSpan opens a span on the context's tracer; with no tracer installed
// it returns nil (all Span methods are nil-safe no-ops). The span adopts
// the context's trace position: same TraceID, parented under the current
// SpanID. Child spans that should nest under this one must be started via
// StartSpanCtx instead.
func StartSpan(ctx context.Context, name string) *Span {
	tr := TracerFrom(ctx)
	if tr == nil {
		return nil
	}
	return tr.newSpan(name, SpanContextFrom(ctx))
}

// StartSpanCtx opens a span like StartSpan and additionally returns a
// context positioned inside it, so spans (and instants) started under the
// returned context become its children — the hook that makes a worker's
// solver stages nest under the coordinator's dispatch span.
func StartSpanCtx(ctx context.Context, name string) (context.Context, *Span) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return ctx, nil
	}
	sp := tr.newSpan(name, SpanContextFrom(ctx))
	return WithSpanContext(ctx, sp.sc), sp
}

func (t *Tracer) newSpan(name string, parent SpanContext) *Span {
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	if sc.TraceID == "" {
		sc.TraceID = NewTraceID()
	}
	return &Span{tr: t, name: name, start: time.Now(), sc: sc, parent: parent.SpanID}
}

// Context returns the span's own trace position (its SpanID is the parent
// for anything started under it). Zero for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetArg attaches one key/value to the span (rendered in the trace viewer's
// args pane).
func (s *Span) SetArg(key string, value any) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
}

// End closes the span and records it. A span shorter than 1 µs records
// 1 µs, so every span record carries a duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tr.add(SpanRecord{
		TraceID: s.sc.TraceID,
		SpanID:  s.sc.SpanID,
		Parent:  s.parent,
		Name:    s.name,
		Proc:    s.tr.proc,
		Kind:    "span",
		StartUS: s.start.UnixMicro(),
		DurUS:   max(1, now.Sub(s.start).Microseconds()),
		Args:    s.args,
	})
}

func (t *Tracer) add(rec SpanRecord) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// Instant records a zero-duration event ("thought bubble" in the viewer) —
// used for RAP incumbents and other point-in-time markers. Records made
// directly on the tracer carry no trace position; prefer the package-level
// Instant, which parents under the context's current span.
func (t *Tracer) Instant(name string, args map[string]any) {
	if t == nil {
		return
	}
	t.instant(name, args, SpanContext{})
}

// Instant records an instant event parented under this span and tagged with
// its trace position — how solver incumbents attach to their search span.
// No-op on a nil span.
func (s *Span) Instant(name string, args map[string]any) {
	if s == nil {
		return
	}
	s.tr.instant(name, args, s.sc)
}

func (t *Tracer) instant(name string, args map[string]any, sc SpanContext) {
	t.add(SpanRecord{
		TraceID: sc.TraceID,
		Parent:  sc.SpanID,
		Name:    name,
		Proc:    t.proc,
		Kind:    "instant",
		StartUS: time.Now().UnixMicro(),
		Args:    args,
	})
}

// Instant records an instant event on the context's tracer, if any,
// parented under the context's current span.
func Instant(ctx context.Context, name string, args map[string]any) {
	tr := TracerFrom(ctx)
	if tr == nil {
		return
	}
	tr.instant(name, args, SpanContextFrom(ctx))
}

// Len reports the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Spans returns the names of all recorded events, in record order (tests and
// progress summaries; the authoritative export is WriteJSON).
func (t *Tracer) Spans() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.recs))
	for i, e := range t.recs {
		out[i] = e.Name
	}
	return out
}

// Records returns a snapshot of the recorded spans and instants in record
// order — the payload piggybacked on WireResult and drained from
// /worker/v1/spans.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.recs...)
}

// WriteJSON exports the trace as a Chrome trace_event JSON object
// ({"traceEvents": [...]}) — load it in chrome://tracing or
// https://ui.perfetto.dev.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return WriteChromeTrace(w, t.Records())
}

// traceEvent is one Chrome trace_event record. Complete spans use ph "X"
// (ts + dur); instant events use ph "i" with thread scope; process-name
// metadata uses ph "M".
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TsUS  int64          `json:"ts"`
	DurUS int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace merges span records — possibly from several processes —
// into one Chrome trace_event timeline. Each distinct Proc gets its own pid
// row (named by a process_name metadata event); timestamps are rebased on
// the earliest record so the timeline starts at zero. This is the single
// exporter behind rcplace -trace and GET /v1/jobs/{id}/trace.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	// Stable pid assignment: procs in first-appearance order, "" first
	// (mapped to pid 1 with no metadata, preserving single-process output).
	pids := make(map[string]int)
	var procs []string
	for _, r := range recs {
		if _, ok := pids[r.Proc]; !ok {
			pids[r.Proc] = 1 + len(pids)
			procs = append(procs, r.Proc)
		}
	}
	var epoch int64
	for i, r := range recs {
		if i == 0 || r.StartUS < epoch {
			epoch = r.StartUS
		}
	}
	events := make([]traceEvent, 0, len(recs)+len(pids))
	for _, p := range procs {
		if p == "" {
			continue
		}
		events = append(events, traceEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pids[p],
			TID:   1,
			Args:  map[string]any{"name": p},
		})
	}
	for _, r := range recs {
		ev := traceEvent{
			Name:  r.Name,
			Phase: "X",
			TsUS:  r.StartUS - epoch,
			DurUS: r.DurUS,
			PID:   pids[r.Proc],
			TID:   1,
			Args:  r.Args,
		}
		if r.Kind == "instant" {
			ev.Phase, ev.Scope, ev.DurUS = "i", "t", 0
		}
		if r.TraceID != "" || r.SpanID != "" || r.Parent != "" {
			args := make(map[string]any, len(r.Args)+3)
			for k, v := range r.Args {
				args[k] = v
			}
			if r.TraceID != "" {
				args["trace_id"] = r.TraceID
			}
			if r.SpanID != "" {
				args["span_id"] = r.SpanID
			}
			if r.Parent != "" {
				args["parent_id"] = r.Parent
			}
			ev.Args = args
		}
		events = append(events, ev)
	}
	// Chrome's importer tolerates any order, but a time-sorted file diffs
	// cleanly and makes golden tests deterministic.
	sort.SliceStable(events, func(i, j int) bool {
		if (events[i].Phase == "M") != (events[j].Phase == "M") {
			return events[i].Phase == "M"
		}
		return events[i].TsUS < events[j].TsUS
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
