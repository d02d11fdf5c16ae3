// Command mthtop is a live terminal console for a running mthserved
// coordinator: one screen showing lane health (circuit state, queue depth,
// per-lane RED metrics, heartbeat RTT), cache effectiveness, job lifecycle
// counters, and the most interesting recent jobs with their trace IDs — so
// a slow job spotted here can be pulled straight out of the fabric with
// GET /v1/jobs/{id}/trace.
//
//	mthtop -addr http://localhost:8080
//	mthtop -addr http://localhost:8080 -once   # one plain-text frame (CI, scripts)
//
// It polls GET /stats, GET /v1/jobs and GET /metrics — nothing the server
// doesn't already expose — through the service's Go client (pkg/mth),
// decoding into the scheduler's own StatsSnapshot and JobView types, so
// the console cannot drift from the server's schema. /metrics is text: a
// small parser for the Prometheus exposition format reads the per-lane
// series.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "coordinator base URL")
		interval = flag.Duration("interval", time.Second, "refresh cadence")
		once     = flag.Bool("once", false, "render one plain frame and exit (no ANSI, exit 1 on fetch failure)")
		rows     = flag.Int("jobs", 8, "job rows to show")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cl := newClient(*addr)
	if *once {
		frame, err := cl.fetch(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mthtop:", err)
			os.Exit(1)
		}
		render(os.Stdout, frame, *rows)
		return
	}

	// Live mode: redraw in place. The frame is composed off-screen and
	// written in one syscall so a slow terminal never shows a half frame.
	var buf bytes.Buffer
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		buf.Reset()
		buf.WriteString("\x1b[H\x1b[2J") // home + clear
		frame, err := cl.fetch(ctx)
		if err != nil {
			fmt.Fprintf(&buf, "mthtop: %s — %v (retrying every %v)\n", *addr, err, *interval)
		} else {
			render(&buf, frame, *rows)
			fmt.Fprintf(&buf, "\n%s  refresh %v  ^C to quit\n", *addr, *interval)
		}
		os.Stdout.Write(buf.Bytes())
		select {
		case <-ctx.Done():
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}
