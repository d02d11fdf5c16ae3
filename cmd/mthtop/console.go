package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"mthplace/internal/server/scheduler"
	"mthplace/pkg/mth"
)

// frame is everything one screen needs, fetched in a single pass.
type frame struct {
	Stats scheduler.StatsSnapshot
	Jobs  []scheduler.JobView
	Prom  []sample
	Now   time.Time
}

// client reads one coordinator's observability surface through the
// service's Go client.
type client struct{ *mth.Client }

func newClient(base string) client {
	return client{mth.NewClient(base, mth.WithHTTPClient(&http.Client{Timeout: 5 * time.Second}))}
}

func (c client) fetch(ctx context.Context) (frame, error) {
	f := frame{Now: time.Now()}
	var err error
	if f.Stats, err = c.Stats(ctx); err != nil {
		return f, err
	}
	if f.Jobs, err = c.Jobs(ctx); err != nil {
		return f, err
	}
	prom, err := c.Metrics(ctx)
	if err != nil {
		return f, err
	}
	f.Prom = parseProm(strings.NewReader(prom))
	return f, nil
}

// sample is one series from the Prometheus text exposition.
type sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// parseProm reads the Prometheus text exposition format: one
// `name{k="v",...} value` line per series, '#' comment lines skipped.
// Label values undo the format's three escapes (\\ \" \n). Unparseable
// lines are skipped rather than failing the frame — a console should
// degrade, not die, on a metric it doesn't understand.
func parseProm(r io.Reader) []sample {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, ok := parsePromLine(line)
		if ok {
			out = append(out, s)
		}
	}
	return out
}

func parsePromLine(line string) (sample, bool) {
	s := sample{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, false
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		labels, tail, ok := parsePromLabels(rest[1:])
		if !ok {
			return s, false
		}
		s.Labels, rest = labels, tail
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, false
	}
	s.Value = v
	return s, true
}

// parsePromLabels consumes `k="v",...}` and returns the remainder after the
// closing brace.
func parsePromLabels(rest string) (map[string]string, string, bool) {
	labels := map[string]string{}
	for {
		rest = strings.TrimLeft(rest, ", ")
		if rest == "" {
			return nil, "", false
		}
		if rest[0] == '}' {
			return labels, rest[1:], true
		}
		eq := strings.Index(rest, "=\"")
		if eq < 0 {
			return nil, "", false
		}
		key := rest[:eq]
		rest = rest[eq+2:]
		var val strings.Builder
		for {
			j := strings.IndexAny(rest, `"\`)
			if j < 0 {
				return nil, "", false
			}
			val.WriteString(rest[:j])
			if rest[j] == '"' {
				rest = rest[j+1:]
				break
			}
			if j+1 >= len(rest) {
				return nil, "", false
			}
			switch rest[j+1] {
			case 'n':
				val.WriteByte('\n')
			default: // \\ and \" unescape to the char itself
				val.WriteByte(rest[j+1])
			}
			rest = rest[j+2:]
		}
		labels[key] = val.String()
	}
}

// laneRED is the per-lane request/error/duration rollup derived from the
// mth_lane_requests_total and mth_lane_seconds families.
type laneRED struct {
	OK, Err, Rerouted int64
	AvgMS             float64
}

func laneStats(samples []sample) map[string]laneRED {
	lanes := map[string]laneRED{}
	sum, count := map[string]float64{}, map[string]float64{}
	for _, s := range samples {
		b := s.Labels["backend"]
		switch s.Name {
		case "mth_lane_requests_total":
			l := lanes[b]
			switch s.Labels["outcome"] {
			case "ok":
				l.OK = int64(s.Value)
			case "error":
				l.Err = int64(s.Value)
			case "rerouted":
				l.Rerouted = int64(s.Value)
			}
			lanes[b] = l
		case "mth_lane_seconds_sum":
			sum[b] = s.Value
		case "mth_lane_seconds_count":
			count[b] = s.Value
		}
	}
	for b, n := range count {
		if n > 0 {
			l := lanes[b]
			l.AvgMS = sum[b] / n * 1000
			lanes[b] = l
		}
	}
	return lanes
}

// render draws one frame. Plain text, no ANSI: the caller owns screen
// control, so the same function serves -once output, the live loop, and
// tests.
func render(w io.Writer, f frame, rows int) {
	st := f.Stats
	fmt.Fprintf(w, "mthtop  up %s  workers %d/%d busy (%.0f%%)  queue %d/%d  inflight %d\n",
		shortDur(time.Duration(st.UptimeSeconds*float64(time.Second))),
		st.BusyWorkers, st.Workers, 100*st.Utilization, st.QueueDepth, st.QueueCapacity, st.Inflight)
	fmt.Fprintf(w, "jobs    started %d  finished %d  degraded %d  retries %d  reroutes %d  lease-exp %d  panics %d\n",
		st.Started, st.Finished, st.Degraded, st.Retries, st.Reroutes, st.LeaseExpirations, st.Panics)
	hitRate := "-"
	if t := st.Cache.Hits + st.Cache.Misses; t > 0 {
		hitRate = fmt.Sprintf("%.1f%%", 100*float64(st.Cache.Hits)/float64(t))
	}
	fmt.Fprintf(w, "cache   %d/%d entries  hits %d  misses %d  hit rate %s\n\n",
		st.Cache.Entries, st.Cache.Capacity, st.Cache.Hits, st.Cache.Misses, hitRate)

	lanes := laneStats(f.Prom)
	fmt.Fprintf(w, "%-12s %-9s %-7s %6s %6s %6s %9s %8s %9s\n",
		"LANE", "CIRCUIT", "QUEUE", "OK", "ERR", "REROUT", "AVG(ms)", "RTT(ms)", "DISPFAIL")
	for _, b := range st.Backends {
		circuit, rtt, df := "-", "-", "-"
		if b.Circuit != "" {
			circuit = b.Circuit
			rtt = fmt.Sprintf("%.1f", b.HeartbeatRTTms)
			df = strconv.FormatInt(b.DispatchFailures, 10)
		}
		red := lanes[b.Name]
		fmt.Fprintf(w, "%-12s %-9s %-7s %6d %6d %6d %9.1f %8s %9s\n",
			b.Name, circuit, fmt.Sprintf("%d/%d", b.Depth, b.Capacity),
			red.OK, red.Err, red.Rerouted, red.AvgMS, rtt, df)
	}

	jobs := selectJobs(f.Jobs, rows)
	if len(jobs) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-12s %-10s %-10s %-12s %9s %4s  %s\n",
		"JOB", "TESTCASE", "STATE", "LANE", "MS", "RER", "TRACE")
	for _, j := range jobs {
		state := string(j.State)
		if j.CacheHit {
			state += "*" // served from the solve cache
		}
		fmt.Fprintf(w, "%-12s %-10s %-10s %-12s %9s %4d  %s\n",
			j.ID, j.Testcase, state, orDash(j.Backend), jobMS(j, f.Now), j.Reroutes, orDash(j.TraceID))
	}
}

// selectJobs picks the rows worth a human's attention: everything still
// running (oldest first — the likeliest stragglers), then the slowest of
// the recently finished.
func selectJobs(jobs []scheduler.JobView, rows int) []scheduler.JobView {
	var running, done []scheduler.JobView
	for _, j := range jobs {
		switch {
		case j.State == scheduler.StateRunning:
			running = append(running, j)
		case j.State.Terminal():
			done = append(done, j)
		}
	}
	sort.Slice(running, func(i, k int) bool { return startedBefore(running[i], running[k]) })
	sort.Slice(done, func(i, k int) bool { return jobDur(done[i]) > jobDur(done[k]) })
	out := running
	if len(out) > rows {
		out = out[:rows]
	}
	if n := rows - len(out); n > 0 {
		if len(done) > n {
			done = done[:n]
		}
		out = append(out, done...)
	}
	return out
}

func startedBefore(a, b scheduler.JobView) bool {
	switch {
	case a.Started == nil:
		return false
	case b.Started == nil:
		return true
	default:
		return a.Started.Before(*b.Started)
	}
}

func jobDur(j scheduler.JobView) time.Duration {
	if j.Started == nil || j.Finished == nil {
		return 0
	}
	return j.Finished.Sub(*j.Started)
}

func jobMS(j scheduler.JobView, now time.Time) string {
	switch {
	case j.Started == nil:
		return "-"
	case j.Finished == nil:
		return fmt.Sprintf("%.0f+", now.Sub(*j.Started).Seconds()*1000)
	default:
		return fmt.Sprintf("%.0f", jobDur(j).Seconds()*1000)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func shortDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}
