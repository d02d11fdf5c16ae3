package errs

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestFromContext(t *testing.T) {
	if err := FromContext(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FromContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled context: %v", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	<-dctx.Done()
	if err := FromContext(dctx); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired context: %v", err)
	}
}

func TestInfeasibleWrapping(t *testing.T) {
	err := Infeasible("row %d over capacity by %d", 3, 7)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatal("Infeasible() does not match ErrInfeasible")
	}
	if errors.Is(err, ErrCanceled) || errors.Is(err, ErrTimeout) {
		t.Fatal("classes must be disjoint")
	}
	// Survives further wrapping, as the flow layers do.
	wrapped := fmt.Errorf("flow: RAP: %w", err)
	if !errors.Is(wrapped, ErrInfeasible) {
		t.Fatal("wrapping lost the class")
	}
}

// TestClassesSurviveWrapping: every class matches itself through nested
// fmt.Errorf wrapping and matches no other class.
func TestClassesSurviveWrapping(t *testing.T) {
	classes := []struct {
		name string
		err  error
	}{
		{"infeasible", ErrInfeasible}, {"timeout", ErrTimeout}, {"canceled", ErrCanceled},
		{"transient", ErrTransient}, {"panic", ErrPanic}, {"unavailable", ErrUnavailable},
	}
	for _, c := range classes {
		t.Run(c.name, func(t *testing.T) {
			wrapped := fmt.Errorf("solver: %w", fmt.Errorf("stage 2: %w", c.err))
			for _, other := range classes {
				if got := errors.Is(wrapped, other.err); got != (other.err == c.err) {
					t.Errorf("errors.Is(wrapped %s, %s) = %v", c.name, other.name, got)
				}
			}
		})
	}
}
