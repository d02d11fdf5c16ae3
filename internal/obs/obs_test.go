package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestLogDefaultsToDiscard(t *testing.T) {
	lg := Log(context.Background())
	if lg == nil {
		t.Fatal("Log returned nil")
	}
	// Must not panic and must report disabled at every level.
	lg.Info("dropped")
	if lg.Enabled(context.Background(), 0) {
		t.Error("discard logger claims to be enabled")
	}
	if Nop().Enabled(context.Background(), 0) {
		t.Error("Nop logger claims to be enabled")
	}
}

func TestWithLoggerNilInstallsDiscard(t *testing.T) {
	ctx := WithLogger(context.Background(), nil)
	Log(ctx).Info("dropped") // must not panic
}

func TestWithLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ctx := WithLogger(context.Background(), NewCLILogger(&buf, false, false))
	Log(ctx).Info("hello", "k", "v")
	out := buf.String()
	if !strings.Contains(out, "hello") || !strings.Contains(out, "k=v") {
		t.Errorf("log output %q missing message or attr", out)
	}
	if strings.Contains(out, "time=") {
		t.Errorf("CLI logger should drop timestamps, got %q", out)
	}
}

func TestNewCLILoggerLevels(t *testing.T) {
	cases := []struct {
		verbose, quiet          bool
		debug, info, warnShould bool
	}{
		{false, false, false, true, true}, // default: info+
		{true, false, true, true, true},   // verbose: debug+
		{false, true, false, false, true}, // quiet: warn+
	}
	for _, c := range cases {
		var buf bytes.Buffer
		lg := NewCLILogger(&buf, c.verbose, c.quiet)
		lg.Debug("dbg")
		lg.Info("inf")
		lg.Warn("wrn")
		out := buf.String()
		if got := strings.Contains(out, "dbg"); got != c.debug {
			t.Errorf("verbose=%v quiet=%v: debug logged=%v, want %v", c.verbose, c.quiet, got, c.debug)
		}
		if got := strings.Contains(out, "inf"); got != c.info {
			t.Errorf("verbose=%v quiet=%v: info logged=%v, want %v", c.verbose, c.quiet, got, c.info)
		}
		if !strings.Contains(out, "wrn") {
			t.Errorf("verbose=%v quiet=%v: warn suppressed", c.verbose, c.quiet)
		}
	}
}

func TestProgressAbsent(t *testing.T) {
	ctx := context.Background()
	if Progress(ctx) != nil {
		t.Error("Progress should be nil without a sink")
	}
	Emit(ctx, Event{Source: "rap", Kind: "incumbent"}) // must not panic
}

func TestProgressDelivery(t *testing.T) {
	var got []Event
	ctx := WithProgress(context.Background(), func(e Event) { got = append(got, e) })
	Emit(ctx, Event{Source: "kmeans", Kind: "iteration", Iter: 3, Moved: 17})
	Emit(ctx, Event{Source: "rap", Kind: "incumbent", Objective: 42, Gap: 0.5})
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	if got[0].Iter != 3 || got[0].Moved != 17 {
		t.Errorf("first event corrupted: %+v", got[0])
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want []string
	}{
		{Event{Source: "flow", Kind: "stage", Stage: "solve"}, []string{"[flow]", "solve"}},
		{Event{Source: "rap", Kind: "incumbent", Objective: 12, Gap: 0.25, Nodes: 9},
			[]string{"[rap]", "obj=12.0", "25.000%", "nodes=9"}},
		{Event{Source: "rap", Kind: "incumbent", Gap: -1}, []string{"gap<=unknown"}},
		{Event{Source: "kmeans", Kind: "iteration", Iter: 4, Moved: 2}, []string{"iter 4", "moved=2"}},
		{Event{Source: "x", Kind: "other"}, []string{"[x] other"}},
	}
	for _, c := range cases {
		s := c.e.String()
		for _, w := range c.want {
			if !strings.Contains(s, w) {
				t.Errorf("Event %+v renders %q; missing %q", c.e, s, w)
			}
		}
	}
}
