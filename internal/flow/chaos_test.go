package flow

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mthplace/internal/check"
	"mthplace/internal/errs"
	"mthplace/internal/fault"
	"mthplace/internal/synth"
)

// chaosSchedules is the number of randomized fault schedules the chaos
// suite drives through the pipeline (reduced under -short). Each schedule
// is a seeded plan, so any failure replays exactly from the logged seed.
const (
	chaosSchedules      = 250
	chaosSchedulesShort = 50
	chaosRate           = 0.12
)

// typedError reports whether err belongs to the placement API's error
// taxonomy — the contract chaos runs enforce: injected trouble may fail a
// run, but only into a classifiable error, never an unclassified one and
// never an escaped panic.
func typedError(err error) bool {
	return errors.Is(err, errs.ErrTransient) ||
		errors.Is(err, errs.ErrPanic) ||
		errors.Is(err, errs.ErrInfeasible) ||
		errors.Is(err, errs.ErrTimeout) ||
		errors.Is(err, errs.ErrCanceled)
}

// TestChaosFlows drives all five flows under randomized fault schedules
// (errors, panics, latency at every stage boundary). Invariant: every run
// either returns a fully check-verified placement or a typed error; an
// escaped panic or an unclassified error fails the suite, and a fault must
// never corrupt a "successful" result (Config.Verify audits each one).
func TestChaosFlows(t *testing.T) {
	n := chaosSchedules
	if testing.Short() {
		n = chaosSchedulesShort
	}
	cfg := testConfig(0.02)
	cfg.Verify = true
	r, err := NewRunner(context.Background(), synth.TableII()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}

	flows := []ID{Flow1, Flow2, Flow3, Flow4, Flow5}
	injected, failed := 0, 0
	for seed := 0; seed < n; seed++ {
		id := flows[seed%len(flows)]
		route := seed%7 == 0
		plan := fault.NewRandomPlan(int64(seed), chaosRate)
		ctx := fault.WithPlan(context.Background(), plan)

		res, err := r.Run(ctx, id, route)
		ev := plan.Events()
		injected += len(ev)
		switch {
		case err != nil:
			failed++
			if !typedError(err) {
				t.Fatalf("seed %d %v: untyped error %v (schedule %+v)", seed, id, err, ev)
			}
		case res == nil:
			t.Fatalf("seed %d %v: nil result without error", seed, id)
		case id != Flow1:
			// Run's epilogue and Config.Verify already audited it; re-check
			// the core invariant so a regression in that wiring cannot mask
			// corruption.
			if err := check.Placement(res.Design, res.Stack).Err(); err != nil {
				t.Fatalf("seed %d %v: corrupt placement after faults %+v: %v", seed, id, ev, err)
			}
		}
	}
	if injected == 0 {
		t.Fatalf("%d schedules injected nothing; chaos rate too low", n)
	}
	if failed == 0 {
		t.Errorf("%d schedules, %d injections, zero failed runs; error faults are not propagating", n, injected)
	}
	t.Logf("chaos: %d schedules, %d injections, %d failed runs (typed)", n, injected, failed)
}

// TestChaosRunnerPreparation targets the parse/generate boundary: runner
// construction under fault plans must return a typed error or a usable
// runner, never panic.
func TestChaosRunnerPreparation(t *testing.T) {
	for seed := 0; seed < 16; seed++ {
		plan := fault.NewRandomPlan(int64(1000+seed), 0.5, fault.KindError, fault.KindPanic)
		ctx := fault.WithPlan(context.Background(), plan)
		r, err := NewRunner(ctx, synth.TableII()[0], testConfig(0.02))
		switch {
		case err != nil:
			if !typedError(err) {
				t.Fatalf("seed %d: untyped error %v", seed, err)
			}
		case r == nil:
			t.Fatalf("seed %d: nil runner without error", seed)
		}
	}
}

// TestChaosDeterministicReplay: the same seed produces the same schedule
// and the same outcome, so a chaos failure is debuggable from its seed.
func TestChaosDeterministicReplay(t *testing.T) {
	cfg := testConfig(0.02)
	r, err := NewRunner(context.Background(), synth.TableII()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (string, []fault.Event) {
		plan := fault.NewRandomPlan(42, 0.3)
		ctx := fault.WithPlan(context.Background(), plan)
		_, err := r.Run(ctx, Flow5, false)
		if err == nil {
			return "", plan.Events()
		}
		// Compare the message line only: panic errors append a stack trace
		// whose frame addresses legitimately differ between runs.
		msg, _, _ := strings.Cut(err.Error(), "\n")
		return msg, plan.Events()
	}
	msgA, evA := run()
	msgB, evB := run()
	if msgA != msgB {
		t.Fatalf("same seed, different outcomes:\n  %q\n  %q", msgA, msgB)
	}
	if len(evA) != len(evB) {
		t.Fatalf("same seed, different schedules: %d vs %d events", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, evA[i], evB[i])
		}
	}
}

// TestInjectedPanicIsTyped pins the panic contract end to end: a panic
// fault at the solve boundary surfaces as ErrPanic, and the runner stays
// usable afterwards.
func TestInjectedPanicIsTyped(t *testing.T) {
	r := newRunner(t, 0.02)
	ctx := fault.WithPlan(context.Background(),
		fault.NewPlan(fault.Rule{Point: PointSolve, Kind: fault.KindPanic}))
	_, err := r.Run(ctx, Flow4, false)
	if !errors.Is(err, errs.ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic", err)
	}
	if _, err := r.Run(context.Background(), Flow4, false); err != nil {
		t.Fatalf("runner unusable after recovered panic: %v", err)
	}
}

// TestInjectedErrorIsTransient: error faults carry the transient class the
// job server's retry loop keys on.
func TestInjectedErrorIsTransient(t *testing.T) {
	r := newRunner(t, 0.02)
	ctx := fault.WithPlan(context.Background(),
		fault.NewPlan(fault.Rule{Point: PointLegalize, Kind: fault.KindError}))
	_, err := r.Run(ctx, Flow5, false)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
}
