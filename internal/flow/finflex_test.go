package flow

import (
	"context"
	"errors"
	"slices"
	"testing"

	"mthplace/internal/check"
	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/finflex"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// runFinFlexAudited runs the auto-fitted pattern with Config.Verify set, so
// the run itself fails on any audit violation, and requires a clean full
// audit of the result.
func runFinFlexAudited(t *testing.T, r *Runner) *Result {
	t.Helper()
	r.Cfg.Verify = true
	name := r.Spec.Name()
	res, err := r.RunFinFlex(context.Background(), nil, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Metrics.Flow != FlowFinFlex {
		t.Errorf("%s: flow tag = %v", name, res.Metrics.Flow)
	}
	if err := check.Placement(res.Design, res.Stack).Err(); err != nil {
		t.Fatalf("%s: finflex placement illegal: %v", name, err)
	}
	if err := r.VerifyResult(res).Err(); err != nil {
		t.Fatalf("%s: finflex result fails the audit: %v", name, err)
	}
	if res.Metrics.HPWL <= 0 || res.Metrics.Displacement <= 0 {
		t.Errorf("%s: missing metrics: %+v", name, res.Metrics)
	}
	return res
}

func TestRunFinFlexAutoPattern(t *testing.T) {
	res := runFinFlexAudited(t, newRunner(t, 0.02))
	// Pattern structure: tall pairs appear at a fixed stride.
	tall := res.Stack.PairsOf(tech.Tall7p5T)
	if len(tall) < 2 {
		t.Fatalf("pattern produced %d tall pairs", len(tall))
	}
	stride := tall[1] - tall[0]
	for k := 1; k < len(tall); k++ {
		if tall[k]-tall[k-1] != stride {
			t.Fatalf("tall pairs not periodic: %v", tall)
		}
	}
	// The audit also holds on the first Table II testcases at scale 0.03.
	for _, spec := range synth.TableII()[:6] {
		r, err := NewRunner(context.Background(), spec, testConfig(0.03))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		runFinFlexAudited(t, r)
	}
}

func TestRunFinFlexExplicitPatternTooDense(t *testing.T) {
	r := newRunner(t, 0.015)
	// A pattern with no tall rows cannot host minority cells.
	_, err := r.RunFinFlex(context.Background(), finflex.Pattern{tech.Short6T}, false)
	if err == nil {
		t.Fatal("all-short pattern must fail")
	}
}

func TestRunFinFlexVsFlow5(t *testing.T) {
	r := newRunner(t, 0.02)
	f5, err := r.Run(context.Background(), Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := r.RunFinFlex(context.Background(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-determined pattern is more constrained; it should not beat
	// the customised rows by much (allow 10% noise on tiny designs).
	if float64(ff.Metrics.HPWL) < 0.9*float64(f5.Metrics.HPWL) {
		t.Errorf("finflex HPWL %d improbably beats flow5 %d", ff.Metrics.HPWL, f5.Metrics.HPWL)
	}
}

// TestRunFinFlexFaultPoints: a panic injected at the legalize boundary
// surfaces as ErrPanic instead of unwinding the caller, and an armed plan
// with no rules leaves the result unchanged.
func TestRunFinFlexFaultPoints(t *testing.T) {
	r := newRunner(t, 0.02)
	want, err := r.RunFinFlex(context.Background(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.WithPlan(context.Background(),
		fault.NewPlan(fault.Rule{Point: PointLegalize, Kind: fault.KindPanic}))
	if _, err := r.RunFinFlex(ctx, nil, false); !errors.Is(err, errs.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	got, err := r.RunFinFlex(fault.WithPlan(context.Background(), fault.NewPlan()), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.HPWL != want.Metrics.HPWL || got.Metrics.Displacement != want.Metrics.Displacement ||
		!slices.Equal(got.Design.Positions(), want.Design.Positions()) {
		t.Errorf("empty fault plan changed the result: HPWL %d/%d, disp %d/%d",
			got.Metrics.HPWL, want.Metrics.HPWL, got.Metrics.Displacement, want.Metrics.Displacement)
	}
}
