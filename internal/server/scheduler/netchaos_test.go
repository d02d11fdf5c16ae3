package scheduler

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"mthplace/internal/fault"
	"mthplace/internal/journal"
)

// netChaosSchedules is the seeded schedule count of the network chaos
// suite, and netChaosInProcessSchedules that of its in-process topology.
// Every schedule is a pure function of its seed, so a failing seed replays
// exactly with -run 'TestNetworkChaos/seed=N' (or
// 'TestNetworkChaosInProcess/seed=N').
const (
	netChaosSchedules          = 250
	netChaosInProcessSchedules = 100
)

// netChaosDisruption is one thing that goes wrong during a schedule.
type netChaosDisruption int

const (
	disruptNone        netChaosDisruption = iota
	disruptKillWorker                     // a worker dies mid-load and stays dead
	disruptPartition                      // a worker hangs (accepts, never answers), heals later
	disruptRefuseFirst                    // the first k dispatches are refused at the network
	disruptCorruptWire                    // the first k responses come back unparseable
	disruptWorkerBusy                     // a worker 503s its first k dispatches
	disruptCount
)

func (d netChaosDisruption) String() string {
	return [...]string{"none", "kill", "partition", "refuse", "corrupt", "busy"}[d]
}

// TestNetworkChaos is the fabric acceptance suite: 250 seeded schedules,
// each submitting a burst of jobs to a coordinator over two stub workers
// while one disruption plays out. Whatever happens — a worker killed
// mid-job, a partition that heals, refused connections, corrupted or
// backpressured responses — the invariants must hold:
//
//   - no job lost: every submission reaches a terminal state;
//   - exactly-once: the journal shows exactly one submitted and exactly
//     one terminal event per job, and every completed job's metrics are
//     byte-identical to an undisturbed run (the stub result is a pure
//     function of the request, so a double execution with divergent
//     outcomes cannot hide);
//   - with a live worker remaining, every job actually completes.
func TestNetworkChaos(t *testing.T) {
	n := netChaosSchedules
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runNetChaosSchedule(t, int64(seed), false)
		})
	}
}

// TestNetworkChaosInProcess runs the same suite on the default deployment's
// topology: two in-process lanes and no remote worker. Their dispatches
// cross the same wire boundary (WireJob → worker handler → WireResult
// under a lease), so refused and corrupted dispatches must meet the same
// invariants.
func TestNetworkChaosInProcess(t *testing.T) {
	n := netChaosInProcessSchedules
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runNetChaosSchedule(t, int64(seed), true)
		})
	}
}

// runNetChaosSchedule plays one seeded schedule. With inProcess the lanes
// are two in-process workers running stubResult, and the disruption is a
// refused or corrupted dispatch; otherwise they are two stub workers
// behind remote lanes, under any disruption.
func runNetChaosSchedule(t *testing.T, seed int64, inProcess bool) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	var opt Options
	var disruption netChaosDisruption
	var victim *stubWorker
	if inProcess {
		opt = remoteOptions()
		opt.Backends, opt.Workers = 2, 4
		disruption = [...]netChaosDisruption{disruptRefuseFirst, disruptCorruptWire}[rng.Intn(2)]
	} else {
		w0, w1 := newStubWorker(t), newStubWorker(t)
		opt = remoteOptions(w0.URL(), w1.URL())
		disruption = netChaosDisruption(rng.Intn(int(disruptCount)))
		victim = []*stubWorker{w0, w1}[rng.Intn(2)]
	}
	opt.JournalDir = dir
	opt.LeaseDuration = 50 * time.Millisecond
	opt.MaxRetries = 2
	k := 1 + rng.Intn(3)

	// Wire-level fault plans are installed before the scheduler starts so
	// the hit counters include every dispatch from the first job on.
	switch disruption {
	case disruptRefuseFirst:
		rules := make([]fault.Rule, k)
		for i := range rules {
			rules[i] = fault.Rule{Point: FaultDispatch, Kind: fault.KindRefuse, Hit: i + 1}
		}
		t.Cleanup(fault.Install(fault.NewPlan(rules...)))
	case disruptCorruptWire:
		rules := make([]fault.Rule, k)
		for i := range rules {
			rules[i] = fault.Rule{Point: FaultDispatch, Kind: fault.KindCorrupt, Hit: i + 1}
		}
		t.Cleanup(fault.Install(fault.NewPlan(rules...)))
	case disruptWorkerBusy:
		victim.setBusy(k)
	}

	s := newSched(t, opt)
	s.SetExec(func(_ context.Context, req JobRequest) (*ExecResult, error) { return stubResult(req), nil })

	const jobs = 10
	reqs := make([]JobRequest, jobs)
	ids := make(map[string]string, jobs) // job ID -> expected terminal event
	handles := make([]*Job, 0, jobs)
	for i := range reqs {
		reqs[i] = JobRequest{
			Testcase: "aes_300",
			Scale:    0.02,
			Seed:     int64(1 + rng.Intn(1000)),
			Solver:   "greedy",
		}
	}

	// The mid-load disruptions arm after a few jobs are in flight.
	switch disruption {
	case disruptKillWorker:
		go func() {
			fault.Sleep(t.Context(), time.Duration(2+rng.Intn(10))*time.Millisecond)
			victim.setMode(modeDead)
		}()
	case disruptPartition:
		heal := time.Duration(60+rng.Intn(80)) * time.Millisecond
		victim.setMode(modePartition)
		go func() {
			fault.Sleep(t.Context(), heal)
			victim.setMode(modeOK)
		}()
	}

	for i := range reqs {
		jb, err := s.Submit(reqs[i])
		if err != nil {
			// Backpressure on submit is legal under chaos; a rejected job is
			// not an accepted job and owes no terminal event.
			continue
		}
		handles = append(handles, jb)
		ids[jb.ID] = journal.EventDone
	}
	if len(handles) == 0 {
		t.Fatal("chaos schedule rejected every submission")
	}

	deadline := time.Now().Add(30 * time.Second)
	for _, jb := range handles {
		for {
			st, err := jb.Snapshot()
			if st.Terminal() {
				if st != StateDone {
					t.Errorf("disruption=%s: job %s finished %q (%v), want done (one worker stayed live)",
						disruption, jb.ID, st, err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("disruption=%s: job %s lost (stuck in %q)", disruption, jb.ID, st)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Completed jobs must carry the exact metrics an undisturbed run would
	// have produced, whichever lane (or how many attempts) served them.
	for _, jb := range handles {
		st, _ := jb.Snapshot()
		if st != StateDone {
			continue
		}
		out, ok := s.Outcome(jb.ID)
		if !ok {
			t.Errorf("disruption=%s: done job %s stored no outcome", disruption, jb.ID)
			continue
		}
		want := stubResult(jb.Request())
		for id, m := range want.Metrics {
			if out.Metrics[id] != m {
				t.Errorf("disruption=%s: job %s flow %v metrics diverge from the undisturbed run:\n got %+v\nwant %+v",
					disruption, jb.ID, id, out.Metrics[id], m)
			}
		}
	}

	// Drain the fabric before auditing: Snapshot() can observe a job
	// terminal a beat before its journal append lands, and zombie attempts
	// (epoch invalidated by a re-route) may still be unwinding. Shutdown
	// joins every worker goroutine, so afterwards the journal is complete.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	auditJournal(t, dir, ids)
	for id := range ids {
		if _, ok := s.Outcome(id); !ok {
			t.Errorf("disruption=%s: job %s has no stored outcome", disruption, id)
		}
	}

	// Trace continuity: whatever the disruption did — kills, reroutes,
	// partitions, zombie attempts — every completed job's merged timeline
	// must have exactly one root span, no orphaned parents, and one reroute
	// instant per counted reroute.
	rerouteInstants := 0
	for id := range ids {
		recs := s.TraceRecords(id)
		tt := topo(t, recs)
		if len(tt.roots) != 1 {
			t.Errorf("disruption=%s: job %s trace has %d root spans, want 1", disruption, id, len(tt.roots))
		}
		if len(tt.orphans) != 0 {
			t.Errorf("disruption=%s: job %s trace has orphan spans: %+v", disruption, id, tt.orphans)
		}
		trace := ""
		for _, r := range recs {
			if trace == "" {
				trace = r.TraceID
			}
			if r.TraceID != trace {
				t.Errorf("disruption=%s: job %s mixes traces %q and %q", disruption, id, trace, r.TraceID)
			}
			if r.Name == "reroute" && r.Kind == "instant" {
				rerouteInstants++
			}
		}
	}
	if got := s.Stats().Reroutes; int64(rerouteInstants) != got {
		t.Errorf("disruption=%s: %d reroute instants in traces vs %d counted reroutes",
			disruption, rerouteInstants, got)
	}
	if disruption == disruptRefuseFirst || disruption == disruptCorruptWire {
		var fails int64
		for _, b := range s.Stats().Backends {
			fails += b.DispatchFailures
		}
		if fails < 1 {
			t.Errorf("disruption=%s: no dispatch failed, so the fault never reached the wire", disruption)
		}
	}
	assertStatsMatchMetrics(t, s, disruption.String())
}

// promSeries parses the scheduler's Prometheus exposition into series name
// (labels included, as rendered) → value.
func promSeries(t *testing.T, s *Scheduler) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// assertStatsMatchMetrics checks that every counter /stats reports equals
// its /metrics series: one fabric, one count, whichever view reads it.
// Series a configuration never registers (the cache pair with caching off)
// read as zero.
func assertStatsMatchMetrics(t *testing.T, s *Scheduler, label string) {
	t.Helper()
	snap := s.Stats()
	series := promSeries(t, s)
	check := func(name string, got int64) {
		t.Helper()
		if want := series[name]; float64(got) != want {
			t.Errorf("disruption=%s: /stats reports %d for %s, /metrics %v", label, got, name, want)
		}
	}
	check("jobs_started_total", snap.Started)
	check("jobs_finished_total", snap.Finished)
	check("job_retries", snap.Retries)
	check("job_reroutes_total", snap.Reroutes)
	check("lease_expirations_total", snap.LeaseExpirations)
	check("mth_cache_hits_total", snap.Cache.Hits)
	check("mth_cache_misses_total", snap.Cache.Misses)
	for _, b := range snap.Backends {
		check(fmt.Sprintf("dispatch_failures_total{backend=%q}", b.Name), b.DispatchFailures)
	}
}
