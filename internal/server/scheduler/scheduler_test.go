package scheduler

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/flow"
)

func newSched(t *testing.T, opt Options) *Scheduler {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// submitWait submits and polls the job to a terminal state.
func submitWait(t *testing.T, s *Scheduler, req JobRequest) *Job {
	t.Helper()
	jb, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := jb.Snapshot()
		if st.Terminal() {
			if st != StateDone {
				t.Fatalf("job %s finished %q (%v), want done", jb.ID, st, err)
			}
			return jb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", jb.ID, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCacheHitBitIdentical is the cache acceptance check, run for every
// solver backend: resubmitting an identical instance is served from the
// cache without executing, and the metrics AND the placement digest are
// bit-identical to the cold solve — not merely equivalent.
func TestCacheHitBitIdentical(t *testing.T) {
	for _, solver := range []string{core.BackendRAP, core.BackendGreedy} {
		t.Run(solver, func(t *testing.T) {
			s := newSched(t, Options{Workers: 1, CacheEntries: 16})
			req := JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{2, 5}, Solver: solver}

			cold := submitWait(t, s, req)
			coldOut, ok := s.Outcome(cold.ID)
			if !ok {
				t.Fatal("cold solve stored no outcome")
			}
			if coldOut.CacheHit {
				t.Fatal("cold solve claims a cache hit")
			}
			if cold.View().CacheHit {
				t.Fatal("cold job view claims a cache hit")
			}

			warm := submitWait(t, s, req)
			warmOut, ok := s.Outcome(warm.ID)
			if !ok {
				t.Fatal("cache hit stored no outcome")
			}
			if !warmOut.CacheHit || !warm.View().CacheHit {
				t.Fatal("resubmission of identical instance was not a cache hit")
			}
			if warm.View().Backend != "" {
				t.Errorf("cache hit reports backend %q, want none", warm.View().Backend)
			}
			for _, id := range []flow.ID{flow.Flow2, flow.Flow5} {
				if coldOut.Metrics[id] != warmOut.Metrics[id] {
					t.Errorf("%v: cached metrics diverge from cold solve:\n cold %+v\n warm %+v",
						id, coldOut.Metrics[id], warmOut.Metrics[id])
				}
				if coldOut.Placements[id] == "" {
					t.Fatalf("%v: cold solve produced no placement digest", id)
				}
				if coldOut.Placements[id] != warmOut.Placements[id] {
					t.Errorf("%v: cached placement digest diverges: %s vs %s",
						id, coldOut.Placements[id], warmOut.Placements[id])
				}
			}
			if hits, misses := s.Cache().Stats(); hits != 1 || misses != 1 {
				t.Errorf("cache stats = %d hits / %d misses, want 1/1", hits, misses)
			}
			// The warm job never reached a worker: started counts only the
			// cold solve.
			if snap := s.Stats(); snap.Started != 1 {
				t.Errorf("jobs_started = %d after a hit, want 1", snap.Started)
			}
		})
	}
}

// TestRAPJobReportsIncumbents: the job's progress snapshot counts the
// running solver's incumbent events, so a rap job reports at least the
// warm start and the objective it settled on.
func TestRAPJobReportsIncumbents(t *testing.T) {
	s := newSched(t, Options{Workers: 1})
	jb := submitWait(t, s, JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}, Solver: core.BackendRAP})
	p := jb.View().Progress
	if p == nil || p.Incumbents < 1 || p.BestObjective <= 0 {
		t.Fatalf("rap job progress = %+v, want >= 1 incumbent with its objective", p)
	}
}

// TestUnknownSolverRejected: a request or scheduler default naming a
// backend core.ValidBackend rejects fails up front, listing the valid ones.
func TestUnknownSolverRejected(t *testing.T) {
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Solver: "milp"}
	if _, _, err := req.validate(); err == nil || !strings.Contains(err.Error(), "want rap or greedy") {
		t.Errorf("validate(solver milp) = %v, want an error listing rap and greedy", err)
	}
	if _, err := New(Options{DefaultSolver: "milp"}); err == nil || !strings.Contains(err.Error(), "want rap or greedy") {
		t.Errorf("New(DefaultSolver milp) = %v, want an error listing rap and greedy", err)
	}
}

// TestCacheControlDirectives: bypass always re-solves but refreshes the
// cache; no-store reads but never writes; off does neither.
func TestCacheControlDirectives(t *testing.T) {
	s := newSched(t, Options{Workers: 1, CacheEntries: 16, DefaultSolver: core.BackendGreedy})
	base := JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}}

	noStore := base
	noStore.Cache = CacheNoStore
	jb := submitWait(t, s, noStore)
	if out, _ := s.Outcome(jb.ID); out.CacheHit {
		t.Fatal("first no-store submission hit an empty cache")
	}
	if s.Cache().Len() != 0 {
		t.Fatalf("no-store populated the cache (%d entries)", s.Cache().Len())
	}

	// Populate via the default directive, then prove bypass re-solves.
	submitWait(t, s, base)
	bypass := base
	bypass.Cache = CacheBypass
	jb = submitWait(t, s, bypass)
	if out, _ := s.Outcome(jb.ID); out.CacheHit {
		t.Error("bypass was served from cache")
	}

	off := base
	off.Cache = CacheOff
	jb = submitWait(t, s, off)
	if out, _ := s.Outcome(jb.ID); out.CacheHit {
		t.Error("off was served from cache")
	}

	// The resident entry still hits for a default submission.
	jb = submitWait(t, s, base)
	if out, _ := s.Outcome(jb.ID); !out.CacheHit {
		t.Error("default submission missed a resident entry")
	}
}

// TestCacheDisabledByDefault: a zero-valued Options runs cacheless, so
// identical submissions always execute.
func TestCacheDisabledByDefault(t *testing.T) {
	s := newSched(t, Options{Workers: 1, DefaultSolver: core.BackendGreedy})
	if s.Cache() != nil {
		t.Fatal("cache enabled without opting in")
	}
	req := JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}}
	submitWait(t, s, req)
	jb := submitWait(t, s, req)
	if out, _ := s.Outcome(jb.ID); out.CacheHit {
		t.Error("cacheless scheduler reported a hit")
	}
	if snap := s.Stats(); snap.Started != 2 {
		t.Errorf("jobs_started = %d, want 2 (both executed)", snap.Started)
	}
}

// TestSubmitBatch: N requests yield N slots in order, invalid members are
// rejected individually, and the valid remainder still runs.
func TestSubmitBatch(t *testing.T) {
	s := newSched(t, Options{Workers: 2, QueueDepth: 8, DefaultSolver: core.BackendGreedy})
	items := s.SubmitBatch([]JobRequest{
		{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}},
		{Testcase: "no_such_testcase"},
		{Testcase: "aes_300", Scale: 0.02, Flows: []int{1}},
	})
	if len(items) != 3 {
		t.Fatalf("batch returned %d slots, want 3", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("valid members rejected: %v / %v", items[0].Err, items[2].Err)
	}
	if items[1].Err == nil {
		t.Fatal("invalid member accepted")
	}
	if items[0].Job.ID == items[2].Job.ID {
		t.Fatal("batch members share an ID")
	}
	for _, idx := range []int{0, 2} {
		jb := items[idx].Job
		deadline := time.Now().Add(120 * time.Second)
		for {
			if st, err := jb.Snapshot(); st.Terminal() {
				if st != StateDone {
					t.Fatalf("batch member %d finished %q (%v)", idx, st, err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch member %d never finished", idx)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestMultiBackendRouting: with several lanes, jobs spread by instance key,
// identical instances always route to the same lane, and every lane's
// queue shows up in the stats snapshot.
func TestMultiBackendRouting(t *testing.T) {
	s := newSched(t, Options{Workers: 4, QueueDepth: 32, Backends: 4, DefaultSolver: core.BackendGreedy})
	snap := s.Stats()
	if len(snap.Backends) != 4 {
		t.Fatalf("stats report %d backends, want 4", len(snap.Backends))
	}
	totalWorkers, totalCap := 0, 0
	for _, b := range snap.Backends {
		totalWorkers += b.Workers
		totalCap += b.Capacity
	}
	if totalWorkers != 4 || totalCap != 32 {
		t.Errorf("lane totals workers=%d cap=%d, want 4/32", totalWorkers, totalCap)
	}

	// Routing is a pure function of the instance keys.
	keysA := s.instanceKeys(&JobRequest{Testcase: "aes_300", Flows: []int{5}})
	keysB := s.instanceKeys(&JobRequest{Testcase: "aes_300", Flows: []int{5}})
	if routingKey(keysA) != routingKey(keysB) {
		t.Fatal("identical requests produced different routing keys")
	}
	if s.ring.pick(routingKey(keysA)) != s.ring.pick(routingKey(keysB)) {
		t.Fatal("identical routing keys landed on different lanes")
	}

	// Distinct seeds must not all collapse onto one lane (vnode spread).
	lanes := map[int]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		keys := s.instanceKeys(&JobRequest{Testcase: "aes_300", Seed: seed, Flows: []int{5}})
		lanes[s.ring.pick(routingKey(keys))] = true
	}
	if len(lanes) < 2 {
		t.Errorf("32 distinct instances all routed to one lane")
	}

	// And real jobs across lanes all complete.
	for seed := int64(1); seed <= 4; seed++ {
		jb := submitWait(t, s, JobRequest{Testcase: "aes_300", Scale: 0.02, Seed: seed, Flows: []int{5}})
		if jb.View().Backend == "" {
			t.Errorf("executed job %s reports no backend", jb.ID)
		}
	}
}

// TestInstanceKeyJournalRoundTrip: a request that goes through JSON — the
// exact transformation the journal applies — hashes to the same per-flow
// keys on replay, so a recovered job hits the same cache entries and the
// same lane.
func TestInstanceKeyJournalRoundTrip(t *testing.T) {
	s := newSched(t, Options{Workers: 1})
	orig := JobRequest{Testcase: "des3_210", Flows: []int{2, 5}, Scale: 0.5, Seed: 7,
		FencePasses: 4, Route: true, Solver: core.BackendRAP, Cache: CacheNoStore}
	raw, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var replayed JobRequest
	if err := json.Unmarshal(raw, &replayed); err != nil {
		t.Fatal(err)
	}
	k1, k2 := s.instanceKeys(&orig), s.instanceKeys(&replayed)
	if len(k1) != 2 || len(k2) != 2 {
		t.Fatalf("key counts %d/%d, want 2/2", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Errorf("flow %d: key changed across JSON round-trip: %s vs %s", i, k1[i], k2[i])
		}
	}
	// Execution-shape fields must NOT shift the identity.
	shaped := orig
	shaped.Jobs = 7
	shaped.TimeoutMS = 60_000
	shaped.Cache = CacheBypass
	k3 := s.instanceKeys(&shaped)
	for i := range k1 {
		if k1[i] != k3[i] {
			t.Errorf("flow %d: jobs/timeout/cache directive leaked into the key", i)
		}
	}
}

// TestDegradedResultNotCached: a result that settled below the ILP optimum
// is time-dependent, so it must never populate the cache.
func TestDegradedResultNotCached(t *testing.T) {
	s := newSched(t, Options{Workers: 1, CacheEntries: 16})
	s.SetExec(func(ctx context.Context, jb *Job) (*ExecResult, error) {
		return &ExecResult{
			Metrics:    map[flow.ID]flow.Metrics{flow.Flow5: {Flow: flow.Flow5, SolveDegraded: true, SolveRung: "anytime"}},
			Placements: map[flow.ID]string{flow.Flow5: "digest"},
		}, nil
	})
	jb := submitWait(t, s, JobRequest{Testcase: "aes_300", Flows: []int{5}})
	if !jb.View().Degraded {
		t.Fatal("stub job not marked degraded")
	}
	if s.Cache().Len() != 0 {
		t.Errorf("degraded result cached (%d entries)", s.Cache().Len())
	}
}
