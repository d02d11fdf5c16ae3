package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Track  int
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; the sequential flow replay also uses its stack helpers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// open starts a span that close finishes.
func (t *tracer) open(name string, parent, track int) int {
	return t.add(span{Name: name, Start: time.Now(), Parent: parent, Track: track})
}

func (t *tracer) close(id int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// busy sums the durations of the spans named name that lie under root.
func busy(spans []span, root int, name string) time.Duration {
	var d time.Duration
	for i, s := range spans {
		if s.Name == name && under(spans, i, root) {
			d += s.dur()
		}
	}
	return d
}

// under reports whether span i is root or one of its descendants.
func under(spans []span, i, root int) bool {
	for ; i >= 0; i = spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// leafCoverage is the share of root's wall time that leaf spans under it
// cover. The replay is sequential, so leaves never overlap; a low value
// means some call between the layers is not wrapped.
func leafCoverage(spans []span, root int) float64 {
	parent := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			parent[s.Parent] = true
		}
	}
	var leaves time.Duration
	for i, s := range spans {
		if !parent[i] && i != root && under(spans, i, root) {
			leaves += s.dur()
		}
	}
	return leaves.Seconds() / spans[root].dur().Seconds()
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.snapshot()
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.Track,
			Args: map[string]any{"id": i, "parent": s.Parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
