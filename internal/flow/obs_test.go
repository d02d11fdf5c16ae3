package flow

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"mthplace/internal/obs"
	"mthplace/internal/synth"
)

// TestFlow5Trace is the tentpole acceptance test: a Flow 5 run with routing
// under a tracer must produce a valid Chrome trace containing all five
// stage spans, the solver sub-spans, and at least one rap incumbent event.
func TestFlow5Trace(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	r, err := NewRunner(ctx, synth.TableII()[0], testConfig(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, Flow5, true); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, name := range tr.Spans() {
		seen[name] = true
	}
	for _, want := range []string{
		"flow.parse", "flow.cluster", "flow.solve", "flow.legalize", "flow.route",
		"cluster.kmeans2d", "core.buildmodel",
		"rap.incumbent",
	} {
		if !seen[want] {
			t.Errorf("trace missing %q; recorded: %v", want, tr.Spans())
		}
	}

	// The export must be valid Chrome trace_event JSON.
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	incumbents := 0
	for _, e := range doc.TraceEvents {
		if e.Name == "rap.incumbent" && e.Phase == "i" {
			incumbents++
		}
	}
	if incumbents < 1 {
		t.Error("trace has no rap incumbent instant event")
	}
}

// TestFlowProgressEvents checks the progress stream carries stage
// transitions, k-means iterations and rap incumbents for an ILP flow.
func TestFlowProgressEvents(t *testing.T) {
	var mu sync.Mutex
	var events []obs.Event
	ctx := obs.WithProgress(context.Background(), func(e obs.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	r, err := NewRunner(ctx, synth.TableII()[0], testConfig(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(ctx, Flow5, false); err != nil {
		t.Fatal(err)
	}

	stages := map[string]bool{}
	var kmeans, incumbents int
	for _, e := range events {
		switch {
		case e.Source == "flow" && e.Kind == "stage":
			stages[e.Stage] = true
		case e.Source == "kmeans" && e.Kind == "iteration":
			kmeans++
			if e.Iter < 1 {
				t.Errorf("k-means iteration not 1-based: %+v", e)
			}
		case e.Source == "rap" && e.Kind == "incumbent":
			incumbents++
		}
	}
	for _, want := range []string{"parse", "cluster", "solve", "legalize"} {
		if !stages[want] {
			t.Errorf("no stage event for %q (got %v)", want, stages)
		}
	}
	if kmeans == 0 {
		t.Error("no k-means iteration events")
	}
	if incumbents == 0 {
		t.Error("no rap incumbent events")
	}
}

// TestObsDoesNotChangeResults: a run with every hook attached must produce
// bit-identical metrics to a bare run — instrumentation is read-only.
func TestObsDoesNotChangeResults(t *testing.T) {
	run := func(ctx context.Context) Metrics {
		r, err := NewRunner(ctx, synth.TableII()[0], testConfig(0.02))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(ctx, Flow5, false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	bare := run(context.Background())

	ctx := obs.WithTracer(context.Background(), obs.NewTracer())
	ctx = obs.WithProgress(ctx, func(obs.Event) {})
	instrumented := run(ctx)

	if bare.Displacement != instrumented.Displacement || bare.HPWL != instrumented.HPWL ||
		bare.SolveRung != instrumented.SolveRung || bare.NumClusters != instrumented.NumClusters {
		t.Errorf("observability changed results:\nbare: %+v\ninstrumented: %+v", bare, instrumented)
	}
}

// TestStageMetricsRecorded: a flow run must land samples in the canonical
// Default-registry series the scrape endpoint exports.
func TestStageMetricsRecorded(t *testing.T) {
	before := map[string]int64{}
	for _, st := range []string{"parse", "cluster", "solve", "legalize"} {
		before[st] = obs.StageSeconds(st).Count()
	}
	r := newRunner(t, 0.02)
	if _, err := r.Run(context.Background(), Flow5, false); err != nil {
		t.Fatal(err)
	}
	for _, st := range []string{"cluster", "solve", "legalize"} {
		if obs.StageSeconds(st).Count() <= before[st] {
			t.Errorf("stage %q recorded no duration sample", st)
		}
	}
}
