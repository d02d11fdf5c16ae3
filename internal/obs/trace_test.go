package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	ctx := context.Background()
	if TracerFrom(ctx) != nil {
		t.Fatal("TracerFrom should be nil without a tracer")
	}
	sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without tracer should return nil")
	}
	sp.SetArg("k", 1) // nil receivers: must not panic
	sp.End()
	Instant(ctx, "marker", nil)
	var tr *Tracer
	tr.Instant("marker", nil)
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Error("nil tracer should report empty")
	}
}

func TestTracerSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	sp := StartSpan(ctx, "work")
	sp.SetArg("n", 7)
	sp.End()
	Instant(ctx, "milestone", map[string]any{"v": 1})
	if tr.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", tr.Len())
	}
	names := tr.Spans()
	if names[0] != "work" || names[1] != "milestone" {
		t.Errorf("span names = %v", names)
	}
}

// TestWriteJSONFormat checks the export against the Chrome trace_event
// contract: a traceEvents array whose complete spans carry ph "X" with
// ts/dur and whose instants carry ph "i" with thread scope.
func TestWriteJSONFormat(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	sp := StartSpan(ctx, "stage")
	sp.SetArg("cells", 42)
	sp.End()
	tr.Instant("incumbent", map[string]any{"objective": 3.5})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TsUS  int64          `json:"ts"`
			DurUS int64          `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("exported %d events, want 2", len(doc.TraceEvents))
	}
	span, inst := doc.TraceEvents[0], doc.TraceEvents[1]
	if span.Phase != "X" || span.Name != "stage" || span.PID != 1 || span.TID != 1 {
		t.Errorf("bad span record: %+v", span)
	}
	if span.Args["cells"] != float64(42) {
		t.Errorf("span args lost: %+v", span.Args)
	}
	if inst.Phase != "i" || inst.Scope != "t" || inst.Name != "incumbent" {
		t.Errorf("bad instant record: %+v", inst)
	}
	if span.TsUS < 0 || inst.TsUS < span.TsUS {
		t.Errorf("timeline not monotonic: span ts=%d instant ts=%d", span.TsUS, inst.TsUS)
	}
}

// TestSpanDurationAtLeastOneMicrosecond checks that a span ended within a
// microsecond of its start still records a duration, so neither its
// SpanRecord (dur_us) nor its Chrome "X" event (dur) drops the field.
func TestSpanDurationAtLeastOneMicrosecond(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 100; i++ {
		StartSpan(ctx, "blink").End()
	}
	for _, r := range tr.Records() {
		if r.DurUS < 1 {
			t.Fatalf("span %q recorded dur_us=%d, want at least 1", r.Name, r.DurUS)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["dur"] == nil {
			t.Fatalf("complete event without dur: %v", ev)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := StartSpan(ctx, "s")
				sp.End()
				tr.Instant("i", nil)
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 8*50*2 {
		t.Errorf("lost events: %d recorded, want %d", tr.Len(), 8*50*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("concurrent trace export is invalid JSON")
	}
}
