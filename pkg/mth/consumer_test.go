package mth

import (
	"context"
	"errors"
	"testing"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/flow"
	"mthplace/internal/synth"
)

// TestFacadeSmoke drives the package the way an external consumer would:
// submit the paper's final flow on a shrunken Table II testcase, wait for
// it, and read the flow tag and HPWL back out of the typed result.
func TestFacadeSmoke(t *testing.T) {
	c := newService(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	v, err := c.Submit(ctx, JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	m, ok := res.Metrics["5"]
	if !ok {
		t.Fatalf("no Flow 5 metrics in %+v", res.Metrics)
	}
	if m.Flow != flow.Flow5 {
		t.Errorf("flow tag %v, want %v", m.Flow, flow.Flow5)
	}
	if m.HPWL <= 0 {
		t.Errorf("HPWL = %d, want > 0", m.HPWL)
	}
}

// smallRunner prepares aes_300 at 2% scale for the in-process subtests.
func smallRunner(t *testing.T) *flow.Runner {
	t.Helper()
	spec, err := synth.Lookup("aes_300")
	if err != nil {
		t.Fatal(err)
	}
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.02
	r, err := flow.NewRunner(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFlowErrorsMatchFacadeSentinels: in-process callers, which the package
// documentation sends to internal/flow, classify failures of actual flow
// runs — not hand-wrapped errors — with the errs sentinels under errors.Is,
// and each failure matches only its own class.
func TestFlowErrorsMatchFacadeSentinels(t *testing.T) {
	r := smallRunner(t)

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := r.Run(ctx, flow.Flow5, false)
		if err == nil {
			t.Fatal("run with canceled context succeeded")
		}
		if !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("err = %v, want errors.Is(_, errs.ErrCanceled)", err)
		}
		if errors.Is(err, errs.ErrTimeout) || errors.Is(err, errs.ErrInfeasible) {
			t.Errorf("err %v matched an unrelated class", err)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := r.Run(ctx, flow.Flow5, false)
		if err == nil {
			t.Fatal("run with expired deadline succeeded")
		}
		if !errors.Is(err, errs.ErrTimeout) {
			t.Errorf("err = %v, want errors.Is(_, errs.ErrTimeout)", err)
		}
		if errors.Is(err, errs.ErrCanceled) {
			t.Errorf("expired deadline classified as cancel: %v", err)
		}
	})

	t.Run("canceled-new-runner", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		spec, err := synth.Lookup("aes_300")
		if err != nil {
			t.Fatal(err)
		}
		cfg := flow.DefaultConfig()
		cfg.Synth.Scale = 0.02
		if _, err := flow.NewRunner(ctx, spec, cfg); !errors.Is(err, errs.ErrCanceled) {
			t.Errorf("NewRunner: err = %v, want errs.ErrCanceled", err)
		}
	})
}
