// Package obs is the zero-dependency observability layer (DESIGN.md §11):
// structured leveled logging, span tracing, a process-wide metrics registry,
// and a solver progress-event stream. Everything is carried on the
// context.Context that already threads through the flow API, and every hook
// is a no-op when the corresponding sink is absent — instrumentation is
// read-only with respect to placement state, so results are bit-identical
// with observability on, off, or partially on.
//
// The four sub-systems:
//
//   - Logging: a *slog.Logger carried by WithLogger/Log. Log returns a
//     discard logger when none is installed, so library code logs
//     unconditionally and the caller decides the level and destination.
//   - Tracing: a Tracer carried by WithTracer collects spans (StartSpan/End)
//     and instant events, exportable as Chrome trace_event JSON
//     (chrome://tracing, Perfetto) via Tracer.WriteJSON.
//   - Metrics: counters, gauges and fixed-bucket float histograms in a
//     Registry, exposed in Prometheus text format (Registry.WriteProm,
//     Registry.Handler). The package-level Default registry holds the
//     canonical process-wide series (mth_solve_total, mth_stage_seconds).
//   - Progress: solver progress events (RAP incumbents, k-means iteration
//     movement, stage transitions) delivered to a SinkFunc installed with
//     WithProgress; Emit without a sink costs one context lookup.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

type ctxKey int

const (
	loggerKey ctxKey = iota
	tracerKey
	progressKey
	spanCtxKey
)

// discardHandler drops every record. (slog.DiscardHandler exists only from
// Go 1.24; this repo's floor is 1.23.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// nopLogger is returned by Log when no logger is installed.
var nopLogger = slog.New(discardHandler{})

// Nop returns a logger that discards everything.
func Nop() *slog.Logger { return nopLogger }

// WithLogger installs lg as the context's structured logger. A nil lg
// installs the discard logger.
func WithLogger(ctx context.Context, lg *slog.Logger) context.Context {
	if lg == nil {
		lg = nopLogger
	}
	return context.WithValue(ctx, loggerKey, lg)
}

// Log returns the context's logger, or a discard logger when none is
// installed — callers log unconditionally and never nil-check.
func Log(ctx context.Context) *slog.Logger {
	if lg, ok := ctx.Value(loggerKey).(*slog.Logger); ok {
		return lg
	}
	return nopLogger
}

// NewCLILogger builds the leveled stderr logger the commands share: Debug
// with verbose set, Warn-and-up with quiet set, Info otherwise. Output is
// slog text format on w, without timestamps when w is a terminal-bound
// stream (diagnostics, not an audit log).
func NewCLILogger(w io.Writer, verbose, quiet bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	if quiet {
		level = slog.LevelWarn
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{} // drop timestamps: this is a progress stream
			}
			return a
		},
	}))
}

// Event is one solver progress notification. Producers fill the fields that
// apply; consumers switch on Source/Kind.
type Event struct {
	// Source is the producing subsystem: "flow", "rap", "kmeans".
	Source string `json:"source"`
	// Kind is the event type: "stage" (flow stage transition), "incumbent"
	// (the RAP search found a better feasible solution), "iteration" (one k-means
	// Lloyd iteration).
	Kind string `json:"kind"`
	// Stage names the flow stage for Kind "stage".
	Stage string `json:"stage,omitempty"`
	// Iter is the 1-based iteration number for Kind "iteration".
	Iter int `json:"iter,omitempty"`
	// Moved counts samples that changed cluster this iteration.
	Moved int `json:"moved,omitempty"`
	// Nodes is the branch-and-bound node count at an incumbent event.
	Nodes int `json:"nodes,omitempty"`
	// Objective is the incumbent objective value.
	Objective float64 `json:"objective,omitempty"`
	// Gap is the relative optimality-gap bound at the event (-1 = unknown).
	Gap float64 `json:"gap,omitempty"`
	// ElapsedMS is the producer's elapsed wall clock at the event.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// String renders the event for terminal progress streams.
func (e Event) String() string {
	switch e.Kind {
	case "stage":
		return fmt.Sprintf("[%s] stage %s", e.Source, e.Stage)
	case "incumbent":
		g := "unknown"
		if e.Gap >= 0 {
			g = fmt.Sprintf("%.3f%%", 100*e.Gap)
		}
		return fmt.Sprintf("[%s] incumbent obj=%.1f gap<=%s nodes=%d t=%.1fms",
			e.Source, e.Objective, g, e.Nodes, e.ElapsedMS)
	case "iteration":
		return fmt.Sprintf("[%s] iter %d moved=%d", e.Source, e.Iter, e.Moved)
	default:
		return fmt.Sprintf("[%s] %s", e.Source, e.Kind)
	}
}

// SinkFunc consumes progress events. Implementations must be safe for
// concurrent use (parallel flows emit concurrently) and fast — they run on
// the solver goroutine.
type SinkFunc func(Event)

// WithProgress installs sink as the context's progress consumer.
func WithProgress(ctx context.Context, sink SinkFunc) context.Context {
	return context.WithValue(ctx, progressKey, sink)
}

// Progress returns the context's progress sink, or nil. Hot loops fetch it
// once instead of calling Emit per event.
func Progress(ctx context.Context) SinkFunc {
	sink, _ := ctx.Value(progressKey).(SinkFunc)
	return sink
}

// Emit delivers one event to the context's sink; without a sink it is one
// context lookup.
func Emit(ctx context.Context, e Event) {
	if sink := Progress(ctx); sink != nil {
		sink(e)
	}
}
