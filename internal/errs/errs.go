// Package errs defines the typed error taxonomy of the placement API.
// Every long-running entry point (flow execution, the RAP solve, the
// legalization passes) reports its failure class through one of the
// sentinels below so callers can dispatch with errors.Is instead of
// matching message strings; the HTTP job server maps them onto status
// codes (ErrInfeasible → 422, ErrTimeout → 504, ErrCanceled → 499).
//
// The package sits below every other internal package (it imports only
// the standard library), so flow, core, legalize and the server can all
// share the same sentinels without import cycles. This is the only place
// they are defined: callers at every layer match errs.Err* directly.
package errs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

var (
	// ErrInfeasible marks a problem instance that provably has no
	// solution under its constraints: a cluster wider than a row's
	// capacity, a minority width budget no row set can host, and so on.
	// Retrying cannot help; the inputs must change.
	ErrInfeasible = errors.New("infeasible")

	// ErrTimeout marks work abandoned because its deadline expired
	// (context.DeadlineExceeded is translated to this sentinel at the
	// API boundary).
	ErrTimeout = errors.New("timed out")

	// ErrCanceled marks work abandoned because its context was canceled
	// (context.Canceled is translated to this sentinel at the API
	// boundary).
	ErrCanceled = errors.New("canceled")

	// ErrTransient marks a failure that is expected to go away on retry:
	// an injected fault, a flaky downstream dependency, a resource that
	// was briefly unavailable. The job server retries this class with
	// exponential backoff; everything else fails immediately.
	ErrTransient = errors.New("transient failure")

	// ErrPanic marks a panic that was caught at an API boundary (flow
	// runner, job server worker) and converted into an error so the
	// process survives. It is never retried: a panic means a bug or an
	// injected chaos fault, not a recoverable condition.
	ErrPanic = errors.New("internal panic")

	// ErrUnavailable marks work that could not be placed on any live
	// execution backend: the dispatch target refused the connection, its
	// circuit breaker is open, or every lane in the ring is down. The HTTP
	// layer maps it to 503 with a Retry-After hint; unlike ErrTransient it
	// says nothing about whether an immediate retry on the *same* backend
	// can help — the scheduler re-routes instead.
	ErrUnavailable = errors.New("backend unavailable")
)

// FromContext translates ctx's termination cause into the canonical
// sentinels: nil while the context is live, ErrCanceled after a cancel,
// ErrTimeout after a deadline expiry. Long-running loops call it at
// their check points and propagate the non-nil result.
func FromContext(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrTimeout
	default:
		return ErrCanceled
	}
}

// Infeasible wraps a formatted message with ErrInfeasible so the class
// survives fmt.Errorf chains: errors.Is(err, ErrInfeasible) holds on the
// result and on anything that wraps it.
func Infeasible(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrInfeasible)
}

// Transient wraps a formatted message with ErrTransient so retry loops can
// classify the failure with errors.Is.
func Transient(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrTransient)
}

// FromPanic converts a recovered panic value into an ErrPanic-classed
// error, including the first stack frames so the report stays actionable
// after the goroutine's own stack is gone. Recover boundaries call it as
//
//	defer func() {
//	    if r := recover(); r != nil { err = errs.FromPanic(r, "flow %v", id) }
//	}()
//
// If the panic value is itself an error it is preserved in the wrap chain,
// so a re-panicked typed error keeps its class in addition to ErrPanic.
func FromPanic(v any, format string, args ...any) error {
	where := fmt.Sprintf(format, args...)
	stack := trimStack(debug.Stack())
	if err, ok := v.(error); ok {
		return fmt.Errorf("%s: %w: %w\n%s", where, ErrPanic, err, stack)
	}
	return fmt.Errorf("%s: %w: %v\n%s", where, ErrPanic, v, stack)
}

// trimStack keeps the panic site useful without dumping the whole runtime
// prologue: the first stackLines lines are plenty to locate the fault.
const stackLines = 16

func trimStack(b []byte) []byte {
	lines := bytes.SplitAfterN(b, []byte("\n"), stackLines+1)
	if len(lines) > stackLines {
		lines = lines[:stackLines]
	}
	return bytes.TrimRight(bytes.Join(lines, nil), "\n")
}
