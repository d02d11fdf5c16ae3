// Package server is the assembled placement service: a thin facade that
// wires the three layers of the job fabric together and preserves the
// original single-package API for existing callers.
//
//   - internal/server/transport — the HTTP/JSON edge (routing, status
//     codes, headers, wire shapes), versioned under /v1/ with the
//     unversioned paths kept as aliases.
//   - internal/server/scheduler — job execution: queues, workers, retries,
//     the crash-safe journal and consistent-hash routing across Backends.
//   - internal/server/store — the bounded result store and the
//     content-addressed solve cache.
//
// New callers that need more than "start the service" should depend on the
// sub-packages directly; everything re-exported here exists so that
// pre-split code (cmd/mthserved, the e2e harness, external scripts) keeps
// compiling and behaving identically.
package server

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
)

// StatusClientClosedRequest mirrors transport.StatusClientClosedRequest for
// pre-split callers.
const StatusClientClosedRequest = transport.StatusClientClosedRequest

// Re-exported scheduler types, so code written against the monolithic
// server package keeps compiling.
type (
	// Job is one placement run through the fabric.
	Job = scheduler.Job
	// JobRequest is the submit body.
	JobRequest = scheduler.JobRequest
	// JobView is the wire representation of a job.
	JobView = scheduler.JobView
	// JobProgress is the live solver-progress snapshot.
	JobProgress = scheduler.JobProgress
	// State is a job's lifecycle phase.
	State = scheduler.State
	// FlowLatency summarises one flow's recent completion latencies.
	FlowLatency = scheduler.FlowLatency
)

// Job lifecycle states, re-exported.
const (
	StateQueued   = scheduler.StateQueued
	StateRunning  = scheduler.StateRunning
	StateDone     = scheduler.StateDone
	StateFailed   = scheduler.StateFailed
	StateCanceled = scheduler.StateCanceled
)

// Options tunes the service. The fields mirror scheduler.Options; see that
// type for full semantics.
type Options struct {
	// Workers is the number of jobs run concurrently (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting behind the workers
	// (default 16); submissions beyond it get 429.
	QueueDepth int
	// Backends is the number of in-process execution lanes jobs are
	// consistent-hash routed across (default 1, or 0 when Remotes are set).
	Backends int
	// Remotes lists worker base URLs; each becomes a remote lane
	// dispatching to a peer mthserved -worker process.
	Remotes []string
	// RemoteWorkers is the concurrent-dispatch complement per remote lane.
	RemoteWorkers int
	// LeaseDuration bounds remote job ownership before re-routing.
	LeaseDuration time.Duration
	// RerouteMax bounds lane moves per job.
	RerouteMax int
	// ProbeInterval is the remote-lane heartbeat cadence.
	ProbeInterval time.Duration
	// BreakerThreshold and BreakerCooldown tune the per-lane circuit
	// breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// PoolJobs bounds the shared worker pool that jobs without a private
	// Jobs setting draw from (default GOMAXPROCS).
	PoolJobs int
	// MaxRetries is how many times a transiently failing job is re-run
	// (default 2; negative disables retries).
	MaxRetries int
	// RetryBase is the first backoff delay (default 25ms).
	RetryBase time.Duration
	// JournalDir, when set, enables the crash-safe job journal.
	JournalDir string
	// DefaultSolver is the RAP solver backend applied to jobs that name
	// none: "rap" (the default when empty) or "greedy".
	DefaultSolver string
	// CacheEntries bounds the content-addressed solve cache; 0 (the
	// default) disables caching, which keeps every explicitly-constructed
	// server — tests above all — byte-for-byte reproducing the pre-cache
	// behaviour unless it opts in.
	CacheEntries int
	// ResultCapacity bounds the terminal-outcome store (0 selects the
	// store default).
	ResultCapacity int
	// Logger receives the server's structured diagnostics. Nil discards
	// them.
	Logger *slog.Logger
}

// Server runs placement jobs from a bounded queue behind an HTTP API.
type Server struct {
	sched *scheduler.Scheduler
	api   *transport.API
}

// New starts a server with opt.Workers worker goroutines. When a journal
// directory is configured, jobs the journal shows accepted but unfinished
// are re-queued, with their original IDs, before the workers start. Call
// Shutdown to stop it.
func New(opt Options) (*Server, error) {
	sched, err := scheduler.New(scheduler.Options{
		Workers:          opt.Workers,
		QueueDepth:       opt.QueueDepth,
		Backends:         opt.Backends,
		Remotes:          opt.Remotes,
		RemoteWorkers:    opt.RemoteWorkers,
		LeaseDuration:    opt.LeaseDuration,
		RerouteMax:       opt.RerouteMax,
		ProbeInterval:    opt.ProbeInterval,
		BreakerThreshold: opt.BreakerThreshold,
		BreakerCooldown:  opt.BreakerCooldown,
		PoolJobs:         opt.PoolJobs,
		MaxRetries:       opt.MaxRetries,
		RetryBase:        opt.RetryBase,
		JournalDir:       opt.JournalDir,
		DefaultSolver:    opt.DefaultSolver,
		CacheEntries:     opt.CacheEntries,
		ResultCapacity:   opt.ResultCapacity,
		Logger:           opt.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Server{sched: sched, api: transport.New(sched)}, nil
}

// Handler returns the service's HTTP routes (/v1/ plus legacy aliases).
func (s *Server) Handler() http.Handler { return s.api.Handler() }

// MetricsHandler returns the /metrics endpoint standalone, for mounting on
// a separate debug listener alongside pprof.
func (s *Server) MetricsHandler() http.Handler { return s.api.MetricsHandler() }

// Scheduler exposes the execution layer for callers that need more than
// the HTTP surface (the CLI's shutdown path, tests).
func (s *Server) Scheduler() *scheduler.Scheduler { return s.sched }

// Shutdown gracefully stops the server; see scheduler.Scheduler.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error { return s.sched.Shutdown(ctx) }

// setExec swaps the job-execution function, adapting the pre-split
// metrics-only stub signature. Test seam.
func (s *Server) setExec(fn func(context.Context, *Job) (map[flow.ID]flow.Metrics, error)) {
	s.sched.SetExec(func(ctx context.Context, jb *Job) (*scheduler.ExecResult, error) {
		m, err := fn(ctx, jb)
		if err != nil {
			return nil, err
		}
		return &scheduler.ExecResult{Metrics: m}, nil
	})
}

// job looks a job up by ID. Test seam.
func (s *Server) job(id string) *Job { return s.sched.Job(id) }

// resilience returns the degraded/retries/panics counters. Test seam.
func (s *Server) resilience() (degraded, retries, panics int64) {
	return s.sched.Resilience()
}
