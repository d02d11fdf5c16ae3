package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"mthplace/internal/errs"
)

// TestBuildClustersPreCanceled: a canceled context aborts before the
// partial k-means result can feed the ILP.
func TestBuildClustersPreCanceled(t *testing.T) {
	d, _ := placedDesign(t, 0.02)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildClusters(ctx, d, 0.3, 20); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// The mid-iteration cancel is exercised at the cluster layer
// (TestKMeans2DCancelStopsEarly), where the Lloyd workload is big enough to
// reliably be in flight when the cancel lands; here the composed
// BuildClusters path only needs to prove the error class surfaces.

// TestSolvePreCanceled: the solve path (greedy warm start, branch and
// bound) checks the context between stages.
func TestSolvePreCanceled(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(context.Background(), d, g, cl, nMinRFor(d, g), DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, m, SolveOptions{}); !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestSolveDeadline: an expired deadline walks the degradation ladder.
// The default (anytime) policy returns the best feasible answer in hand —
// here the greedy warm start, honestly labelled — while the strict policy
// fails fast with ErrTimeout, the class the HTTP layer maps to 504.
func TestSolveDeadline(t *testing.T) {
	d, g := placedDesign(t, 0.02)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildModel(context.Background(), d, g, cl, nMinRFor(d, g), DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()

	got, err := Solve(ctx, m, SolveOptions{})
	if err != nil {
		t.Fatalf("anytime policy on expired deadline: err = %v, want degraded result", err)
	}
	if !got.Stats.Degraded || got.Stats.Rung != RungGreedy {
		t.Fatalf("anytime stats = %+v, want Degraded greedy rung", got.Stats)
	}
	if got.Stats.DegradeReason != "deadline" {
		t.Errorf("DegradeReason = %q, want %q", got.Stats.DegradeReason, "deadline")
	}

	if _, err := Solve(ctx, m, SolveOptions{Degrade: DegradeStrict}); !errors.Is(err, errs.ErrTimeout) {
		t.Fatalf("strict policy: err = %v, want ErrTimeout", err)
	}
}
