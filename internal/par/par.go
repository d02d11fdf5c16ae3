// Package par is the shared parallel execution layer: bounded worker pools
// plus parallel-for / ordered-map primitives used by the RAP cost-model
// build, the k-means clustering, the experiment matrix and the placement
// job server.
//
// Design rules (see DESIGN.md §7):
//
//   - Each Pool is bounded. Jobs() workers exist in total across nested
//     calls on that pool: a caller always executes iterations itself and
//     recruits at most Jobs()−1 extra goroutines from the pool's budget, so
//     nesting (experiment matrix → BuildModel → …) never oversubscribes the
//     machine and never deadlocks. Distinct pools have distinct budgets —
//     a server running concurrent placement jobs gives each job its own
//     pool so one job's Jobs setting cannot stomp another's.
//   - Results are deterministic. Iterations write only their own slot
//     (For/Map), and floating-point reductions go through ForChunks, whose
//     chunk boundaries depend only on the problem size — never on the worker
//     count — so partial sums merge in a fixed order and jobs=1 and jobs=N
//     produce bit-identical results.
//   - The worker count defaults to runtime.GOMAXPROCS, can be pinned with
//     the MTHPLACE_JOBS environment variable, or per pool with NewPool (the
//     -jobs flag), and is fixed when the pool is built. A bound of 1
//     (`-jobs 1` or MTHPLACE_JOBS=1) runs fully sequentially.
//
// Pools travel with the work they bound: WithPool attaches a pool to a
// context and FromContext recovers it (falling back to the process-wide
// Default), so deeply nested stages pick up their runner's pool without
// threading an extra parameter through every signature.
package par

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker budget. The zero value is not usable; construct
// with NewPool. All methods are safe for concurrent use.
type Pool struct {
	jobs int
	// extraInUse counts extra worker goroutines currently running across
	// all concurrent For/Map calls on this pool. The budget is Jobs()−1:
	// callers always work themselves, so nested calls degrade gracefully
	// to sequential execution instead of deadlocking or oversubscribing.
	extraInUse atomic.Int64
}

// Default is the process-wide pool used by work that carries no pool in its
// context. Its bound comes from GOMAXPROCS or the MTHPLACE_JOBS environment
// variable.
var Default = NewPool(0)

// NewPool returns a pool bounded to n workers (1 = fully sequential).
// n <= 0 uses the default bound (GOMAXPROCS, or the MTHPLACE_JOBS
// environment override).
func NewPool(n int) *Pool {
	return &Pool{jobs: resolveJobs(n)}
}

// resolveJobs maps a requested bound to an effective one.
func resolveJobs(n int) int {
	if n > 0 {
		return n
	}
	n = runtime.GOMAXPROCS(0)
	if s := os.Getenv("MTHPLACE_JOBS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	return n
}

// Jobs returns the pool's worker bound.
func (p *Pool) Jobs() int { return p.jobs }

// poolKey carries a *Pool in a context.
type poolKey struct{}

// WithPool returns a context carrying p; stages below recover it with
// FromContext. A nil p returns ctx unchanged.
func WithPool(ctx context.Context, p *Pool) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, poolKey{}, p)
}

// FromContext returns the pool carried by ctx, or Default if none is.
func FromContext(ctx context.Context) *Pool {
	if ctx != nil {
		if p, ok := ctx.Value(poolKey{}).(*Pool); ok {
			return p
		}
	}
	return Default
}

// acquireExtra grants up to want extra workers from the pool's budget.
func (p *Pool) acquireExtra(want int) int {
	if want <= 0 {
		return 0
	}
	for {
		cur := p.extraInUse.Load()
		free := int64(p.Jobs()) - 1 - cur
		if free <= 0 {
			return 0
		}
		grant := int64(want)
		if grant > free {
			grant = free
		}
		if p.extraInUse.CompareAndSwap(cur, cur+grant) {
			return int(grant)
		}
	}
}

func (p *Pool) releaseExtra(n int) {
	if n > 0 {
		p.extraInUse.Add(int64(-n))
	}
}

// blocksPerWorker sets the scheduling granularity: the grain is chosen so a
// full run hands out about this many blocks to every worker. Larger values
// balance uneven iteration costs better; smaller values cut atomic traffic
// on the shared claim counter. Eight bounds the load imbalance from the last
// uneven block at ~1/(8·workers) of the run while already amortizing the
// counter to a negligible cost for cheap iterations.
const blocksPerWorker = 8

// grainFor returns the number of consecutive iterations a worker claims per
// fetch on the shared counter. It is GOMAXPROCS-aware through workers (the
// pool bound): enough blocks remain for dynamic load balancing across every
// worker, but cheap micro-iterations (per-cell loops in legalization, row
// scans) are claimed hundreds at a time instead of one atomic RMW each.
// Scheduling order never affects results — For/Map iterations write only
// their own slot — so the grain can depend on the worker count even though
// reduction chunk boundaries (chunkSize) must not.
func grainFor(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := n / (workers * blocksPerWorker)
	if g < 1 {
		g = 1
	}
	return g
}

// run executes body(i) for i in [0, n) with dynamic scheduling across the
// caller plus up to extra recruited workers. Workers claim blocks of
// grainFor(n, Jobs()) consecutive iterations from a shared counter. Worker
// panics are captured and re-raised on the calling goroutine. stop aborts
// the claiming of further iterations (used by ForErr).
func (p *Pool) run(n int, stop *atomic.Bool, body func(i int)) {
	grain := grainFor(n, p.Jobs())
	extra := 0
	if n > 1 {
		// No point recruiting more workers than there are blocks to claim.
		blocks := (n + grain - 1) / grain
		extra = p.acquireExtra(blocks - 1)
	}
	if extra == 0 {
		// Sequential fast path on the calling goroutine; panics propagate
		// naturally.
		for i := 0; i < n; i++ {
			if stop != nil && stop.Load() {
				break
			}
			body(i)
		}
		return
	}
	var panicMu sync.Mutex
	var panicked any
	var next atomic.Int64
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicked == nil {
					panicked = r
				}
				panicMu.Unlock()
				if stop != nil {
					stop.Store(true)
				}
			}
		}()
		for {
			if stop != nil && stop.Load() {
				return
			}
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				if stop != nil && stop.Load() {
					return
				}
				body(i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(extra)
	for k := 0; k < extra; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	p.releaseExtra(extra)
	panicMu.Lock()
	pk := panicked
	panicMu.Unlock()
	if pk != nil {
		panic(pk)
	}
}

// For runs fn(i) for every i in [0, n) on the pool and waits for all of
// them. Iterations must be independent and may only write state owned by
// their own index; under that contract the result is identical for any
// worker count.
func (p *Pool) For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	p.run(n, nil, fn)
}

// ForErr is For with error propagation: once any iteration fails, no new
// iterations start, and the error with the lowest index among the observed
// failures is returned. A nil return guarantees every iteration ran.
func (p *Pool) ForErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var stop atomic.Bool
	var mu sync.Mutex
	errIdx := n
	var firstErr error
	p.run(n, &stop, func(i int) {
		if err := fn(i); err != nil {
			mu.Lock()
			if i < errIdx {
				errIdx, firstErr = i, err
			}
			mu.Unlock()
			stop.Store(true)
		}
	})
	return firstErr
}

// ForChunks partitions [0, n) into the canonical chunks and runs
// fn(ci, lo, hi) for each chunk ci covering [lo, hi). Reduction users
// accumulate into per-chunk scratch inside fn and merge the chunks serially
// in index order afterwards; that merge order is what makes float
// reductions deterministic across worker counts.
func (p *Pool) ForChunks(n int, fn func(ci, lo, hi int)) {
	nch := NumChunks(n)
	if nch == 0 {
		return
	}
	p.For(nch, func(ci int) {
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		fn(ci, lo, hi)
	})
}

// MapOn runs fn over [0, n) on pool p and collects the results in index
// order, regardless of completion order. On error the partial results are
// discarded and the lowest-indexed observed error is returned. (A
// package-level generic function rather than a method: Go methods cannot
// introduce type parameters.)
func MapOn[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForErr(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// chunkSize is the canonical reduction granule. It is a constant so that
// chunk boundaries — and therefore the order in which per-chunk partial
// float sums are merged — depend only on the problem size, never on the
// worker count. Reductions built on ForChunks are bit-identical at any
// Jobs() setting.
const chunkSize = 256

// NumChunks returns the canonical chunk count for n items.
func NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + chunkSize - 1) / chunkSize
}
