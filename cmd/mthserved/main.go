// Command mthserved runs the placement service: an HTTP/JSON front end over
// the flow API with a bounded job queue, cancellation, and graceful
// shutdown. See DESIGN.md §8 and the README for the endpoint reference.
//
// Usage:
//
//	mthserved -addr :8080 -workers 2 -queue 16 -pool-jobs 8
//
// The service is layered (DESIGN.md §13): the HTTP transport accepts jobs
// under /v1/ (plus unversioned aliases and POST /v1/jobs:batch), the
// scheduler holds them in one bounded queue that every execution lane
// (-backends in-process, -remote workers) takes jobs from, and the result
// store keeps a -cache-entries LRU solve cache so a repeated instance is
// answered bit-identically without re-solving (per-request opt-out via
// Cache-Control or the body's "cache" field).
//
// SIGINT/SIGTERM stops intake, cancels queued jobs, and drains in-flight
// jobs (up to -drain); a second signal aborts immediately.
//
// Resilience (DESIGN.md §10): transient job failures are retried up to
// -retries times with backoff; panics inside a job fail that job with a
// structured 500 and leave the daemon running. With -journal DIR the server
// keeps a crash-safe write-ahead log (jobs.jsonl) and re-runs
// accepted-but-unfinished jobs, under their original IDs, on restart.
// MTHPLACE_FAULTS (comma-separated point:kind[@hit][=delay] clauses or
// rand:seed:rate[:kinds]) injects faults at the pipeline stage boundaries
// for chaos testing.
//
// Observability (DESIGN.md §11): GET /metrics on the main address serves
// the Prometheus text exposition (job lifecycle counters, flow stage
// latency histograms, solve-rung counters). -debug-addr additionally binds
// a debug listener with net/http/pprof under /debug/pprof/ plus the same
// /metrics — keep it loopback-only in production. -v/-q tune the
// structured log level on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/fault"
	"mthplace/internal/obs"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/internal/server/worker"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	debugAddr := flag.String("debug-addr", "", "debug listen address for /debug/pprof/ and /metrics (empty = disabled)")
	workers := flag.Int("workers", 2, "concurrent placement jobs, split across the -backends lanes (worker mode: execution slots)")
	queue := flag.Int("queue", 16, "depth of the one job queue beyond the workers; a submission that finds it full gets 429")
	backends := flag.Int("backends", 0, "in-process execution lanes, each taking jobs from the one queue (0 = 1, or none with -remote)")
	workerMode := flag.Bool("worker", false, "run as an execution worker: serve the worker API (/worker/v1/) for a coordinator's -remote list instead of the job API")
	remotes := flag.String("remote", "", "comma-separated worker base URLs (http://host:port) added as remote execution lanes")
	lease := flag.Duration("lease", 0, "remote job lease duration; a worker silent this long has its jobs re-routed (0 = 15s default)")
	probeInterval := flag.Duration("probe-interval", 0, "remote worker heartbeat cadence (0 = 2s default)")
	cacheEntries := flag.Int("cache-entries", 512, "content-addressed solve-cache capacity in flow results (0 = cache off)")
	poolJobs := flag.Int("pool-jobs", 0, "shared worker-pool bound for jobs without a private -jobs setting (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 2*time.Minute, "graceful-shutdown drain budget for in-flight jobs")
	retries := flag.Int("retries", 2, "max retries for transient job failures (-1 disables)")
	journalDir := flag.String("journal", "", "job-journal directory; unfinished jobs are re-run on restart (empty = journaling off)")
	solver := flag.String("solver", "", `default RAP solver backend for jobs that name none: rap (default) or greedy; per-job override via the request's "solver" field`)
	verbose := flag.Bool("v", false, "verbose diagnostics (debug level) on stderr")
	quiet := flag.Bool("q", false, "quiet: warnings and errors only")
	flag.Parse()

	lg := obs.NewCLILogger(os.Stderr, *verbose, *quiet)

	if err := fault.InitFromEnv(); err != nil {
		lg.Error("mthserved: bad MTHPLACE_FAULTS", "err", err)
		os.Exit(2)
	}

	// The coordinator's scheduler validates -solver too; checking here also
	// covers worker mode, which would otherwise fail every job that names
	// no solver.
	if err := core.ValidBackend(*solver); err != nil {
		lg.Error("mthserved: bad -solver", "err", err)
		os.Exit(2)
	}

	if *workerMode {
		runWorker(lg, *addr, *workers, *poolJobs, *solver, *drain)
		return
	}

	var remoteList []string
	for _, r := range strings.Split(*remotes, ",") {
		if r = strings.TrimSpace(r); r != "" {
			remoteList = append(remoteList, r)
		}
	}
	sched, err := scheduler.New(scheduler.Options{
		Workers:       *workers,
		QueueDepth:    *queue,
		Backends:      *backends,
		Remotes:       remoteList,
		LeaseDuration: *lease,
		ProbeInterval: *probeInterval,
		CacheEntries:  *cacheEntries,
		PoolJobs:      *poolJobs,
		MaxRetries:    *retries,
		JournalDir:    *journalDir,
		DefaultSolver: *solver,
		Logger:        lg,
	})
	if err != nil {
		lg.Error("mthserved: startup failed", "err", err)
		os.Exit(1)
	}
	api := transport.New(sched)
	httpSrv := &http.Server{Addr: *addr, Handler: api.Handler()}

	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: debugMux(api)}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 2)
	go func() {
		lg.Info("mthserved: listening", "addr", *addr, "workers", *workers, "queue", *queue)
		errCh <- httpSrv.ListenAndServe()
	}()
	if dbgSrv != nil {
		go func() {
			lg.Info("mthserved: debug listener up (pprof + metrics)", "addr", *debugAddr)
			errCh <- dbgSrv.ListenAndServe()
		}()
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			lg.Error("mthserved: listener failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills us
		lg.Info("mthserved: shutting down, draining in-flight jobs")
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			lg.Warn("mthserved: http shutdown", "err", err)
		}
		if dbgSrv != nil {
			if err := dbgSrv.Shutdown(drainCtx); err != nil {
				lg.Warn("mthserved: debug shutdown", "err", err)
			}
		}
		if err := sched.Shutdown(drainCtx); err != nil {
			lg.Error("mthserved: job drain failed", "err", err)
			os.Exit(1)
		}
		lg.Info("mthserved: drained cleanly")
	}
}

// runWorker serves the worker-mode API: /worker/v1/execute and
// /worker/v1/ping for a coordinator, plus /healthz and /metrics for
// operators. Shutdown is plain HTTP drain — in-flight jobs finish with
// their requests; everything else (leases, re-routes, retries) is the
// coordinator's problem, by design.
func runWorker(lg *slog.Logger, addr string, slots, poolJobs int, solver string, drain time.Duration) {
	h := worker.New(worker.Options{Slots: slots, PoolJobs: poolJobs, DefaultSolver: solver, Logger: lg})
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", h.MetricsHandler())
	httpSrv := &http.Server{Addr: addr, Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		lg.Info("mthserved: worker listening", "addr", addr, "slots", slots)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			lg.Error("mthserved: worker listener failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		lg.Info("mthserved: worker shutting down, finishing in-flight jobs")
		drainCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			lg.Warn("mthserved: worker shutdown", "err", err)
		}
	}
}

// debugMux serves the profiling and metrics endpoints on the debug
// listener. pprof is registered explicitly (not via the package's
// DefaultServeMux side effect) so the main API mux never exposes it.
func debugMux(api *transport.API) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", api.MetricsHandler())
	return mux
}
