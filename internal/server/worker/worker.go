// Package worker names the worker API for the binaries that serve or start
// one on its own: mthserved -worker and the benchmark's fabric workload.
// The handler lives in package scheduler, which also builds one for every
// in-process lane, so a job runs through the same code on every lane.
// These aliases stay so those callers keep their import path and names.
package worker

import "mthplace/internal/server/scheduler"

type (
	// Options tunes a worker.
	Options = scheduler.WorkerOptions
	// Handler serves the worker API; SetExec and MetricsHandler are its
	// test seam and metrics endpoint.
	Handler = scheduler.WorkerHandler
)

// New builds a worker handler with its own solver pool.
func New(opt Options) *Handler { return scheduler.NewWorker(opt) }
