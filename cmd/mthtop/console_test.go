package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParsePromLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		labels map[string]string
		value  float64
		ok     bool
	}{
		{`mth_jobs_started_total 42`, "mth_jobs_started_total", nil, 42, true},
		{`mth_lane_requests_total{backend="remote-0",outcome="ok"} 7`,
			"mth_lane_requests_total", map[string]string{"backend": "remote-0", "outcome": "ok"}, 7, true},
		// The three text-format escapes must round-trip.
		{`m{v="a\\b\"c\nd"} 1`, "m", map[string]string{"v": "a\\b\"c\nd"}, 1, true},
		{`mth_stage_seconds_bucket{le="+Inf",stage="solve"} 9`,
			"mth_stage_seconds_bucket", map[string]string{"le": "+Inf", "stage": "solve"}, 9, true},
		{`garbage`, "", nil, 0, false},
		{`m{unterminated="x} 1`, "", nil, 0, false},
		{`m{a="b"} notanumber`, "", nil, 0, false},
	}
	for _, c := range cases {
		s, ok := parsePromLine(c.line)
		if ok != c.ok {
			t.Errorf("%q: ok=%v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if s.Name != c.name || s.Value != c.value {
			t.Errorf("%q: got %q=%v, want %q=%v", c.line, s.Name, s.Value, c.name, c.value)
		}
		for k, v := range c.labels {
			if s.Labels[k] != v {
				t.Errorf("%q: label %q=%q, want %q", c.line, k, s.Labels[k], v)
			}
		}
	}
}

const testMetrics = `# HELP mth_lane_requests_total Lane dispatch attempts by outcome.
# TYPE mth_lane_requests_total counter
mth_lane_requests_total{backend="remote-0",outcome="ok"} 57
mth_lane_requests_total{backend="remote-0",outcome="error"} 1
mth_lane_requests_total{backend="remote-0",outcome="rerouted"} 2
mth_lane_seconds_sum{backend="remote-0"} 0.6
mth_lane_seconds_count{backend="remote-0"} 60
mth_lane_requests_total{backend="local-0",outcome="ok"} 40
mth_lane_seconds_sum{backend="local-0"} 0.2
mth_lane_seconds_count{backend="local-0"} 40
`

func TestLaneStats(t *testing.T) {
	lanes := laneStats(parseProm(strings.NewReader(testMetrics)))
	r0 := lanes["remote-0"]
	if r0.OK != 57 || r0.Err != 1 || r0.Rerouted != 2 {
		t.Errorf("remote-0 RED = %+v, want 57/1/2", r0)
	}
	if r0.AvgMS < 9.9 || r0.AvgMS > 10.1 {
		t.Errorf("remote-0 avg = %v ms, want ~10", r0.AvgMS)
	}
	if l0 := lanes["local-0"]; l0.OK != 40 || l0.AvgMS < 4.9 || l0.AvgMS > 5.1 {
		t.Errorf("local-0 = %+v, want 40 ok, ~5ms", l0)
	}
}

// TestConsoleFrame drives the whole fetch→parse→render path against a stub
// coordinator serving the three endpoints mthtop polls.
func TestConsoleFrame(t *testing.T) {
	started := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	finished := started.Add(45 * time.Millisecond)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{
			"uptime_seconds": 3723, "queue_depth": 2, "queue_capacity": 16,
			"workers": 4, "busy_workers": 3, "worker_utilization": 0.75,
			"jobs_started": 120, "jobs_finished": 117, "jobs_inflight": 3,
			"jobs_degraded": 1, "job_retries": 4, "job_reroutes": 2,
			"lease_expirations": 1, "job_panics": 0,
			"backends": [
				{"name":"remote-0","depth":2,"capacity":2,"workers":2,"addr":"http://w0","circuit":"closed","heartbeat_rtt_ms":0.8,"dispatch_failures":1},
				{"name":"local-0","depth":1,"capacity":2,"workers":2}
			],
			"cache": {"enabled":true,"entries":37,"capacity":512,"hits":80,"misses":40}
		}`))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"jobs":[
			{"id":"job-000117","state":"done","testcase":"aes_300","backend":"remote-0",
			 "started":"` + started.Format(time.RFC3339Nano) + `",
			 "finished":"` + finished.Format(time.RFC3339Nano) + `",
			 "reroutes":1,"trace_id":"0af7651916cd43dd8448eb211c80319c"},
			{"id":"job-000118","state":"running","testcase":"nova_500","backend":"local-0",
			 "started":"` + started.Format(time.RFC3339Nano) + `"},
			{"id":"job-000119","state":"queued","testcase":"des3_210"}
		]}`))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(testMetrics))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	f, err := newClient(srv.URL).fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, f, 8)
	out := b.String()

	for _, want := range []string{
		"workers 3/4 busy (75%)",
		"queue 2/16",
		"BUSY",
		"remote-0     closed    2/2",
		"local-0      -         1/2",
		"inflight 3",
		"reroutes 2",
		"hit rate 66.7%",
		"remote-0",
		"closed",
		"local-0",
		"job-000117",
		"0af7651916cd43dd8448eb211c80319c", // trace ID visible → copy into /v1/jobs/{id}/trace
		"job-000118",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Running jobs lead the table; queued ones aren't rows.
	if strings.Index(out, "job-000118") > strings.Index(out, "job-000117") {
		t.Errorf("running job should sort before finished:\n%s", out)
	}
	if strings.Contains(out, "job-000119") {
		t.Errorf("queued job should not occupy a row:\n%s", out)
	}
}

func TestRenderEmptyFabric(t *testing.T) {
	var b strings.Builder
	render(&b, frame{Now: time.Now()}, 8)
	if out := b.String(); !strings.Contains(out, "LANE") {
		t.Errorf("empty frame should still print the lane header:\n%s", out)
	}
}
