package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mthplace/internal/server/scheduler"
)

// TestMain lets the test binary serve as a paper_matrix pass process, as
// the benchmark binary does, when a workload under test starts one.
func TestMain(m *testing.M) {
	if arg := os.Getenv(passEnv); arg != "" {
		os.Exit(runPassProcess(arg))
	}
	os.Exit(m.Run())
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64(n - i) // unsorted on purpose
		}
		return vs
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{3, 3},
		{6, 5},   // a quarter of 6 samples: one beyond
		{20, 15}, // ten beyond would fall below the median: upper quartile
		{39, 30},
		{40, 30},
		{100, 90},
		{600, 590},
	} {
		if got := tail(seq(tc.n)); got != tc.want {
			t.Errorf("tail of 1..%d = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestOpenLoopReportsLag(t *testing.T) {
	const n = 6
	interval, service := 10*time.Millisecond, 30*time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	// One sender that is three times slower than the schedule: a closed loop
	// would hide the backlog; the open loop must report it as lag.
	recs, errs := openLoop(context.Background(), start, interval, n, 1, func(int) error {
		time.Sleep(service)
		return nil
	})
	for i, r := range recs {
		if errs[i] != nil {
			t.Fatalf("send %d: %v", i, errs[i])
		}
		if want := start.Add(time.Duration(i) * interval); !r.due.Equal(want) {
			t.Errorf("job %d due %v, want %v", i, r.due.Sub(start), want.Sub(start))
		}
		if r.sent.Before(r.due) {
			t.Errorf("job %d sent %v before it was due", i, r.due.Sub(r.sent))
		}
	}
	// Job i cannot start before i earlier sends of 30 ms finished, so its
	// lag is at least i·(30 − 10) ms.
	last := recs[n-1]
	if lag, want := last.sent.Sub(last.due), time.Duration(n-1)*(service-interval); lag < want {
		t.Errorf("lag of the last job = %v, want at least %v", lag, want)
	}
}

func TestJobLatencyCountsFromDue(t *testing.T) {
	due := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	finished := due.Add(250 * time.Millisecond)
	lr := &loadRun{
		// The job was sent 200 ms late and ran for 50 ms.
		recs:  []sendRecord{{due: due, sent: due.Add(200 * time.Millisecond)}, {due: due}},
		ids:   []string{"job-1", ""},
		views: map[string]scheduler.JobView{"job-1": {State: scheduler.StateDone, Submitted: due.Add(200 * time.Millisecond), Finished: &finished}},
	}
	if got := lr.latencies(); len(got) != 1 || got[0] != 250 {
		t.Errorf("latencies = %v, want [250] (from due, refused job left out)", got)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := openLoop(ctx, time.Now().Add(time.Hour), time.Second, 3, 2, func(int) error { return nil })
	for i, err := range errs {
		if err == nil {
			t.Errorf("job %d: no error after cancel", i)
		}
	}
}

func TestJobStreamRepeatsReachBack(t *testing.T) {
	mix := []string{"a", "b", "c"}
	const n, back = 400, 100
	jobs := jobStream(7, n, mix, back)
	repeats := 0
	for i, j := range jobs {
		wantRepeat := i%4 == 3 && i >= back
		if (j.RepeatOf >= 0) != wantRepeat {
			t.Fatalf("job %d: RepeatOf = %d, repeat wanted: %v", i, j.RepeatOf, wantRepeat)
		}
		if j.RepeatOf < 0 {
			continue
		}
		repeats++
		orig := jobs[j.RepeatOf]
		if d := i - j.RepeatOf; d < back || d > 2*back {
			t.Errorf("job %d repeats job %d, %d back, want %d to %d", i, j.RepeatOf, d, back, 2*back)
		}
		if orig.RepeatOf >= 0 || orig.Testcase != j.Testcase || orig.Seed != j.Seed {
			t.Errorf("job %d does not repeat the instance of new job %d", i, j.RepeatOf)
		}
	}
	if want := (n - back) / 4; repeats != want {
		t.Errorf("%d repeats, want %d", repeats, want)
	}
	seeds := map[int64]bool{}
	perTestcase := map[string]int{}
	for _, j := range jobs {
		if j.RepeatOf < 0 {
			if seeds[j.Seed] {
				t.Errorf("new jobs share seed %d", j.Seed)
			}
			seeds[j.Seed] = true
			perTestcase[j.Testcase]++
		}
	}
	// 325 new jobs over 3 testcases: 108 or 109 each.
	for tc, c := range perTestcase {
		if c < 108 || c > 109 {
			t.Errorf("testcase %s drawn %d times, want 108 or 109", tc, c)
		}
	}
	again := jobStream(7, n, mix, back)
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("same seed, different job %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}
	if other := jobStream(8, n, mix, back); other[0] == jobs[0] && other[1] == jobs[1] {
		t.Error("different seeds gave the same stream")
	}
}

func TestRatioMeanIsFlow2Normalized(t *testing.T) {
	if got := ratioMean([]float64{10, 30}, []float64{20, 20}); got != 1 {
		t.Errorf("mean of 0.5 and 1.5 = %v, want 1", got)
	}
	if got := ratioMean([]float64{10, 7}, []float64{20, 0}); got != 0.5 {
		t.Errorf("zero Flow (2) value not skipped: %v", got)
	}
	if got := ratioMean([]float64{1}, []float64{0}); !math.IsNaN(got) {
		t.Errorf("no defined ratio = %v, want NaN", got)
	}
}

// tinySize shrinks every workload so the smoke test runs them all.
var tinySize = sizes{
	matrixSpecs:  []string{"aes_300", "fpu_4000"},
	matrixScale:  0.03,
	matrixSets:   1,
	scaleSpec:    "nova_300",
	scaleCells:   5_000,
	scaleDesigns: 2,
	mix:          []string{"fpu_4000", "ldpc_300"},
	mixScale:     0.02,
	rate:         20,
	repeatBack:   8,
	rounds:       2,
}

// TestSmokeEveryMetricEmitted runs the four workloads shrunk, untraced and
// traced, and requires every metric BENCHMARK.json names, with its unit,
// and no failed check.
func TestSmokeEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			e := &env{seed: 1, budget: time.Second, trace: trace, workdir: t.TempDir(), size: tinySize}
			rep := measure(context.Background(), w, e, filepath.Join(e.workdir, "spans.json"))
			res := resultFor(rep, trace, 1)
			for _, f := range rep.Failures {
				t.Errorf("%s (trace %v): %s", w.name, trace, f)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json has %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", w.name, trace, d.Name, got, d.Unit)
				}
			}
		}
	}
}
