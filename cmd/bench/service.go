package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/internal/server/worker"
)

// jobHeader carries the load generator's job index so the harness's own
// handler wrapper can match a submission to its job. The service ignores
// unknown headers.
const jobHeader = "X-Bench-Job"

// clients is the number of connections the load generator holds.
const clients = 2

// streamJob is one job of the open-loop stream.
type streamJob struct {
	Testcase string
	Seed     int64
	// RepeatOf is the index of the earlier job whose instance this job
	// submits again, or -1 for a new instance.
	RepeatOf int
}

// jobStream draws n jobs from the mix. New jobs take the mix's testcases
// in shuffled rounds, so every testcase is equally frequent whatever the
// seed and the latency percentiles do not move with the draw. Every fourth
// job from index back on repeats the instance of a new job between back and
// 2·back positions earlier. At the planned rate the original has long
// finished, and fewer than 2·back jobs' results entered the solve cache
// since, so whenever the original was cacheable the repeat finds it there.
func jobStream(seed int64, n int, mix []string, back int) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]streamJob, n)
	var round []int
	for i := range jobs {
		if i%4 == 3 && i >= back {
			lo := max(0, i-2*back)
			for {
				j := lo + rng.Intn(i-back-lo+1)
				if jobs[j].RepeatOf < 0 {
					jobs[i] = streamJob{Testcase: jobs[j].Testcase, Seed: jobs[j].Seed, RepeatOf: j}
					break
				}
			}
			continue
		}
		if len(round) == 0 {
			round = rng.Perm(len(mix))
		}
		jobs[i] = streamJob{Testcase: mix[round[0]], Seed: deriveSeed(seed, i), RepeatOf: -1}
		round = round[1:]
	}
	return jobs
}

// sendRecord times one open-loop submission: when it was due and when a
// client connection started sending it.
type sendRecord struct {
	due, sent time.Time
}

// openLoop submits n requests on a fixed schedule, one every interval from
// start, over at most conns concurrent senders. A request is due at its
// scheduled time whether or not earlier ones have returned; when every
// sender is busy it waits, and that wait counts as lag (sent − due).
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n, conns int, send func(i int) error) ([]sendRecord, []error) {
	recs := make([]sendRecord, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				recs[i].sent = time.Now()
				errs[i] = send(i)
			}
		}()
	}
	i := 0
loop:
	for ; i < n; i++ {
		recs[i].due = start.Add(time.Duration(i) * interval)
		timer := time.NewTimer(time.Until(recs[i].due))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			break loop
		}
		select {
		case next <- i:
		case <-ctx.Done():
			break loop
		}
	}
	close(next)
	wg.Wait()
	for ; i < n; i++ {
		errs[i] = ctx.Err()
	}
	return recs, errs
}

// wrappers are the harness's own handlers around the transport and worker
// handlers on a traced run. They time each submission and each worker
// execution; the service code underneath is unchanged.
type wrappers struct {
	mu      sync.Mutex
	submit  map[int][2]time.Time    // job index → handler start, end
	execute map[string][2]time.Time // coordinator job ID → last execution's start, end
}

func newWrappers() *wrappers {
	return &wrappers{submit: map[int][2]time.Time{}, execute: map[string][2]time.Time{}}
}

func (w *wrappers) transport(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.Header.Get(jobHeader))
		start := time.Now()
		next.ServeHTTP(rw, r)
		if err == nil {
			w.mu.Lock()
			w.submit[idx] = [2]time.Time{start, time.Now()}
			w.mu.Unlock()
		}
	})
}

func (w *wrappers) worker(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != scheduler.WorkerExecutePath {
			next.ServeHTTP(rw, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(rw, err.Error(), http.StatusBadRequest)
			return
		}
		var wj scheduler.WireJob
		_ = json.Unmarshal(body, &wj) // a bad body is the worker's to reject
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		next.ServeHTTP(rw, r)
		w.mu.Lock()
		w.execute[wj.ID] = [2]time.Time{start, time.Now()}
		w.mu.Unlock()
	})
}

// service is one in-process deployment: the scheduler behind the /v1
// transport on a loopback server, plus a worker process stand-in on the
// fabric workload.
type service struct {
	sched   *scheduler.Scheduler
	api     *httptest.Server
	worker  *httptest.Server
	journal string
	client  *http.Client
}

// startService brings up mthserved's default configuration: 2 workers,
// queue 16, cache 512. With fabric set, the coordinator instead dispatches
// to one remote worker (2 slots) and journals every job event.
func startService(workdir string, fabric bool, w *wrappers) (*service, error) {
	s := &service{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}}
	opt := scheduler.Options{Workers: 2, QueueDepth: 16, CacheEntries: 512}
	if fabric {
		var h http.Handler = worker.New(worker.Options{Slots: 2})
		if w != nil {
			h = w.worker(h)
		}
		s.worker = httptest.NewServer(h)
		dir, err := os.MkdirTemp(workdir, "journal-")
		if err != nil {
			s.close()
			return nil, err
		}
		s.journal = dir
		opt.Remotes = []string{s.worker.URL}
		opt.JournalDir = dir
	}
	sched, err := scheduler.New(opt)
	if err != nil {
		s.close()
		return nil, err
	}
	s.sched = sched
	var h http.Handler = transport.New(sched).Handler()
	if w != nil {
		h = w.transport(h)
	}
	s.api = httptest.NewServer(h)
	return s, nil
}

// close drains the scheduler, then stops the servers and removes the
// journal.
func (s *service) close() {
	if s.sched != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = s.sched.Shutdown(ctx) // an unfinished job is already a reported failure
		cancel()
	}
	if s.api != nil {
		s.api.Close()
	}
	if s.worker != nil {
		s.worker.Close()
	}
	s.client.CloseIdleConnections()
	if s.journal != "" {
		_ = os.RemoveAll(s.journal) // scratch space under the work directory
	}
}

func (s *service) submit(ctx context.Context, idx int, req scheduler.JobRequest) (id string, status int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.api.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	hreq.Header.Set(jobHeader, strconv.Itoa(idx))
	resp, err := s.client.Do(hreq)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		_, _ = io.Copy(io.Discard, resp.Body)
		return "", resp.StatusCode, nil
	}
	var v scheduler.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", resp.StatusCode, fmt.Errorf("decode submit reply: %w", err)
	}
	return v.ID, resp.StatusCode, nil
}

func (s *service) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.api.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitTerminal polls GET /v1/jobs until every job in ids is terminal and
// returns their views.
func (s *service) waitTerminal(ctx context.Context, ids []string) (map[string]scheduler.JobView, error) {
	for {
		var list struct {
			Jobs []scheduler.JobView `json:"jobs"`
		}
		if err := s.get(ctx, "/v1/jobs", &list); err != nil {
			return nil, err
		}
		views := make(map[string]scheduler.JobView, len(list.Jobs))
		for _, v := range list.Jobs {
			views[v.ID] = v
		}
		done := true
		for _, id := range ids {
			if !views[id].State.Terminal() {
				done = false
				break
			}
		}
		if done {
			return views, nil
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// jobResult is the GET /v1/jobs/{id}/result body.
type jobResult struct {
	Metrics    map[string]flow.Metrics `json:"metrics"`
	Placements map[string]string       `json:"placements"`
	CacheHit   bool                    `json:"cache_hit"`
}

func (sz sizes) request(j streamJob) scheduler.JobRequest {
	return scheduler.JobRequest{Testcase: j.Testcase, Seed: j.Seed, Flows: []int{2, 5}, Scale: sz.mixScale, Solver: core.BackendGreedy}
}

// warmUp brings a service up and runs one job per mix testcase with the
// cache off, so the first timed job finds lazily built state ready. It
// returns the set-up time: from the start until the last warm-up job
// finished, by the service's own clock, so polling adds nothing to it.
func warmUp(ctx context.Context, e *env, fabric bool, w *wrappers) (*service, float64, error) {
	t0 := time.Now().Round(0)
	s, err := startService(e.workdir, fabric, w)
	if err != nil {
		return nil, 0, err
	}
	var ids []string
	for i, tc := range e.size.mix {
		req := e.size.request(streamJob{Testcase: tc, Seed: 1})
		req.Cache = scheduler.CacheOff
		id, status, err := s.submit(ctx, -1-i, req)
		if err == nil && status != http.StatusAccepted {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up %s: %w", tc, err)
		}
		ids = append(ids, id)
	}
	views, err := s.waitTerminal(ctx, ids)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	var last time.Time
	for _, id := range ids {
		v := views[id]
		if v.State != scheduler.StateDone || v.Finished == nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up job %s (%s) ended %s: %s", id, v.Testcase, v.State, v.Error)
		}
		if v.Finished.After(last) {
			last = *v.Finished
		}
	}
	return s, last.Sub(t0).Seconds(), nil
}

// loadRun is what one open-loop load phase leaves behind.
type loadRun struct {
	jobs    []streamJob
	recs    []sendRecord
	ids     []string // "" where the submission was refused or failed
	views   map[string]scheduler.JobView
	results map[string]jobResult
}

// runLoad sends the stream to s and collects every job's view and result.
// Refusals and transport errors are reported through o.
func runLoad(ctx context.Context, o *outcome, s *service, sz sizes, jobs []streamJob) (*loadRun, error) {
	lr := &loadRun{jobs: jobs, ids: make([]string, len(jobs))}
	interval := time.Duration(float64(time.Second) / sz.rate)
	// Strip the monotonic reading so due times compare with the service's
	// timestamps, which arrive as wall-clock JSON.
	start := time.Now().Add(20 * time.Millisecond).Round(0)
	statuses := make([]int, len(jobs))
	recs, errs := openLoop(ctx, start, interval, len(jobs), clients, func(i int) (err error) {
		lr.ids[i], statuses[i], err = s.submit(ctx, i, sz.request(jobs[i]))
		return err
	})
	lr.recs = recs
	var accepted []string
	for i, id := range lr.ids {
		switch {
		case id != "":
			accepted = append(accepted, id)
		case errs[i] != nil:
			o.fail("job %d not submitted: %v", i, errs[i])
		default:
			o.fail("job %d refused with status %d", i, statuses[i])
		}
	}
	views, err := s.waitTerminal(ctx, accepted)
	if err != nil {
		return nil, err
	}
	lr.views = views
	lr.results = make(map[string]jobResult, len(accepted))
	for _, id := range accepted {
		v := views[id]
		if v.State != scheduler.StateDone {
			o.fail("job %s (%s) ended %s: %s", id, v.Testcase, v.State, v.Error)
			continue
		}
		var res jobResult
		if err := s.get(ctx, "/v1/jobs/"+id+"/result", &res); err != nil {
			o.fail("job %s result: %v", id, err)
			continue
		}
		lr.results[id] = res
	}
	return lr, nil
}

// latencies are the due-to-finished times of completed jobs, in ms.
func (lr *loadRun) latencies() []float64 {
	var out []float64
	for i, id := range lr.ids {
		if v, ok := lr.views[id]; ok && v.State == scheduler.StateDone && v.Finished != nil {
			out = append(out, ms(v.Finished.Sub(lr.recs[i].due)))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runService(fabric bool) func(ctx context.Context, e *env) (*outcome, error) {
	return func(ctx context.Context, e *env) (*outcome, error) {
		o := newOutcome()
		sz := e.size
		n := int(e.budget.Seconds()*sz.rate + 0.5)
		if e.trace {
			n /= 2
		}
		var s *service
		var setup []float64
		for round := 0; round < sz.setupRounds(e.trace); round++ {
			if s != nil {
				s.close()
			}
			var took float64
			var err error
			if s, took, err = warmUp(ctx, e, fabric, nil); err != nil {
				return nil, err
			}
			setup = append(setup, took)
		}
		o.metrics["setup_s"] = median(setup)

		jobs := jobStream(e.seed, n, sz.mix, sz.repeatBack)
		lr, err := runLoad(ctx, o, s, sz, jobs)
		s.close()
		if err != nil {
			return nil, err
		}
		o.attempted = n
		lat := lr.latencies()
		o.setLatencyMS(lat)
		checkService(ctx, o, sz, lr)

		if e.trace {
			w := newWrappers()
			ts, _, err := warmUp(ctx, e, fabric, w)
			if err != nil {
				return nil, err
			}
			tlr, err := runLoad(ctx, o, ts, sz, jobs)
			ts.close()
			if err != nil {
				return nil, err
			}
			serviceLayers(e, o, tlr, w)
			o.note("traced load: job p50 %.2f ms vs untraced %.2f ms", median(tlr.latencies()), median(lat))
		}
		return o, nil
	}
}

// checkService is the correctness gate of a load phase, outside every
// timed region.
func checkService(ctx context.Context, o *outcome, sz sizes, lr *loadRun) {
	t0 := time.Now()
	var h2, h5, d2, d5 []float64
	direct := map[string]bool{}
	for i, j := range lr.jobs {
		res, ok := lr.results[lr.ids[i]]
		if !ok {
			continue
		}
		if j.RepeatOf >= 0 {
			checkRepeat(o, lr, i)
			continue
		}
		f2, f5 := res.Metrics["2"], res.Metrics["5"]
		h2, h5 = append(h2, float64(f2.HPWL)), append(h5, float64(f5.HPWL))
		d2, d5 = append(d2, float64(f2.Displacement)), append(d5, float64(f5.Displacement))
		// One job per mix testcase must match a direct library run.
		if !direct[j.Testcase] {
			direct[j.Testcase] = true
			want, err := scheduler.RunRequest(ctx, sz.request(j), nil, "", nil)
			if err != nil {
				o.fail("job %d direct run: %v", i, err)
				continue
			}
			for _, id := range []flow.ID{flow.Flow2, flow.Flow5} {
				if got := res.Placements[strconv.Itoa(int(id))]; got != want.Placements[id] {
					o.fail("job %d (%s) %v: served placement %.12s differs from direct run %.12s", i, j.Testcase, id, got, want.Placements[id])
				}
			}
		}
	}
	o.metrics["hpwl_f5_f2"] = ratioMean(h5, h2)
	o.metrics["legalize.disp_f5_f2"] = ratioMean(d5, d2)
	ilp, optimal := 0, 0
	for _, res := range lr.results {
		if res.CacheHit {
			continue
		}
		ilp++
		if res.Metrics["5"].SolveRung == core.RungILP {
			optimal++
		}
	}
	if ilp > 0 {
		o.metrics["core.optimal_frac"] = float64(optimal) / float64(ilp)
	}
	o.metrics["check.audit_s"] = since(t0)
}

// checkRepeat checks job i, which repeats an earlier instance: a cache hit
// must carry the original's placements, and a repeat of a cacheable
// original that had finished before the repeat arrived must be a hit.
func checkRepeat(o *outcome, lr *loadRun, i int) {
	j := lr.jobs[i]
	res := lr.results[lr.ids[i]]
	orig, ok := lr.results[lr.ids[j.RepeatOf]]
	if !ok {
		return // the original's failure is reported already
	}
	if res.CacheHit {
		for flowID, d := range orig.Placements {
			if res.Placements[flowID] != d {
				o.fail("job %d: cache hit placement of flow %s differs from job %d's", i, flowID, j.RepeatOf)
			}
		}
		return
	}
	ov, rv := lr.views[lr.ids[j.RepeatOf]], lr.views[lr.ids[i]]
	if !ov.Degraded && ov.Finished != nil && ov.Finished.Before(rv.Submitted) {
		o.fail("job %d: repeat of finished job %d missed the cache", i, j.RepeatOf)
	}
}

// serviceLayers derives the per-layer metrics and spans of a traced load.
func serviceLayers(e *env, o *outcome, lr *loadRun, w *wrappers) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var submit, queue, exec, execute, overhead, lag []float64
	retries, reroutes, repeats, hits, refused := 0, 0, 0, 0, 0
	var last time.Time
	for i, id := range lr.ids {
		rec := lr.recs[i]
		lag = append(lag, ms(rec.sent.Sub(rec.due)))
		if id == "" {
			refused++
			continue
		}
		v := lr.views[id]
		if lr.jobs[i].RepeatOf >= 0 {
			repeats++
			if v.CacheHit {
				hits++
			}
		}
		track := i + 1
		root := -1
		if v.Finished != nil {
			root = e.tr.add(span{Name: "job", Start: rec.due, End: *v.Finished, Parent: -1, Track: track})
			if v.Finished.After(last) {
				last = *v.Finished
			}
		}
		e.tr.add(span{Name: "loadgen.lag", Start: rec.due, End: rec.sent, Parent: root, Track: track})
		if t, ok := w.submit[i]; ok {
			submit = append(submit, ms(t[1].Sub(t[0])))
			e.tr.add(span{Name: "transport.submit", Start: t[0], End: t[1], Parent: root, Track: track})
		}
		if v.Started == nil || v.Finished == nil {
			continue
		}
		retries += max(v.Attempts-1, 0)
		reroutes += v.Reroutes
		queue = append(queue, ms(v.Started.Sub(v.Submitted)))
		exec = append(exec, ms(v.Finished.Sub(*v.Started)))
		e.tr.add(span{Name: "scheduler.queue", Start: v.Submitted, End: *v.Started, Parent: root, Track: track})
		ex := e.tr.add(span{Name: "scheduler.exec", Start: *v.Started, End: *v.Finished, Parent: root, Track: track})
		if t, ok := w.execute[id]; ok {
			d := t[1].Sub(t[0])
			execute = append(execute, ms(d))
			overhead = append(overhead, ms(v.Finished.Sub(*v.Started)-d))
			e.tr.add(span{Name: "worker.execute", Start: t[0], End: t[1], Parent: ex, Track: track})
		}
	}
	o.metrics["transport.submit_p50_ms"] = median(submit)
	o.metrics["transport.submit_tail_ms"] = tail(submit)
	o.metrics["transport.refused"] = float64(refused)
	o.metrics["scheduler.queue_p50_ms"] = median(queue)
	o.metrics["scheduler.queue_tail_ms"] = tail(queue)
	o.metrics["scheduler.exec_p50_ms"] = median(exec)
	o.metrics["scheduler.exec_tail_ms"] = tail(exec)
	o.metrics["scheduler.dispatch_overhead_p50_ms"] = median(overhead)
	o.metrics["scheduler.retries"] = float64(retries)
	o.metrics["scheduler.reroutes"] = float64(reroutes)
	o.metrics["worker.execute_p50_ms"] = median(execute)
	o.metrics["worker.execute_tail_ms"] = tail(execute)
	o.metrics["loadgen.lag_tail_ms"] = tail(lag)
	if repeats > 0 {
		o.metrics["store.cache_hit_frac"] = float64(hits) / float64(repeats)
	}
	if first := lr.recs[0].due; last.After(first) {
		o.metrics["loadgen.jobs_per_s"] = float64(len(lr.results)) / last.Sub(first).Seconds()
	}
}
