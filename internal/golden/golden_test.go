package golden

import (
	"context"
	"strings"
	"testing"
	"time"
)

const goldenPath = "testdata/golden.json"

// TestGoldenRegression recomputes the corpus and compares it against the
// committed snapshot. A failure means placer behaviour changed: either fix
// the regression or, for an intentional change, regenerate with
// `go run ./cmd/gentest -golden` and commit the reviewed JSON diff.
func TestGoldenRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := Load(goldenPath)
	if err != nil {
		t.Fatalf("load committed snapshot: %v (regenerate with `go run ./cmd/gentest -golden`)", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	got, err := Compute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(got, want, DefaultTol); len(diffs) != 0 {
		t.Errorf("golden corpus drift (%d metric(s)):\n  %s", len(diffs), strings.Join(diffs, "\n  "))
	}
}

// perturbed deep-copies a snapshot and applies fn to its first flow entry.
func perturbed(t *testing.T, s *Snapshot, fn func(*FlowMetrics)) *Snapshot {
	t.Helper()
	c := *s
	c.Designs = append([]DesignSnapshot(nil), s.Designs...)
	for i := range c.Designs {
		fl := map[string]FlowMetrics{}
		for k, v := range s.Designs[i].Flows {
			fl[k] = v
		}
		c.Designs[i].Flows = fl
	}
	if len(c.Designs) == 0 {
		t.Fatal("empty snapshot")
	}
	m := c.Designs[0].Flows["flow5"]
	fn(&m)
	c.Designs[0].Flows["flow5"] = m
	return &c
}

// TestGoldenDetectsDrift demonstrates the tolerance semantics on the
// committed snapshot itself: drift beyond DefaultTol fails, drift within it
// passes, and a missing design or flow entry is reported.
func TestGoldenDetectsDrift(t *testing.T) {
	want, err := Load(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(want, want, 0); len(diffs) != 0 {
		t.Fatalf("snapshot does not equal itself: %v", diffs)
	}

	big := perturbed(t, want, func(m *FlowMetrics) {
		m.HPWL += int64(2*DefaultTol*float64(m.HPWL)) + 1
	})
	diffs := Compare(big, want, DefaultTol)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "HPWL drift") {
		t.Errorf("beyond-tolerance HPWL perturbation: got diffs %v, want one HPWL drift", diffs)
	}

	disp := perturbed(t, want, func(m *FlowMetrics) { m.Displacement = m.Displacement*2 + 1000 })
	diffs = Compare(disp, want, DefaultTol)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "displacement drift") {
		t.Errorf("displacement perturbation: got diffs %v, want one displacement drift", diffs)
	}

	// The DEF digest is exact at any tolerance: a moved cell fails even
	// when every total stays within bounds.
	def := perturbed(t, want, func(m *FlowMetrics) { m.DEF = "0000000000000000" })
	diffs = Compare(def, want, 1)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "DEF digest drift") {
		t.Errorf("DEF digest perturbation: got diffs %v, want one DEF digest drift", diffs)
	}

	small := perturbed(t, want, func(m *FlowMetrics) {
		m.HPWL += int64(0.5 * DefaultTol * float64(m.HPWL))
	})
	if diffs := Compare(small, want, DefaultTol); len(diffs) != 0 {
		t.Errorf("within-tolerance perturbation flagged: %v", diffs)
	}

	missing := perturbed(t, want, func(*FlowMetrics) {})
	delete(missing.Designs[0].Flows, "flow3")
	if diffs := Compare(missing, want, DefaultTol); len(diffs) != 1 || !strings.Contains(diffs[0], "missing") {
		t.Errorf("missing flow entry: got diffs %v", diffs)
	}

	empty := &Snapshot{Schema: Schema, Scale: Scale, Seed: Seed}
	if diffs := Compare(empty, want, DefaultTol); len(diffs) < len(want.Designs) {
		t.Errorf("empty snapshot produced only %d diffs", len(diffs))
	}
}
