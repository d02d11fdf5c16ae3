package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mthplace/internal/fault"
	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/internal/server/worker"
)

var updateSchema = flag.Bool("update", false, "rewrite testdata/stats_schema.json")

// jsonType names a decoded JSON value's type.
func jsonType(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "bool"
	case float64:
		return "number"
	case string:
		return "string"
	case []any:
		return "array"
	case map[string]any:
		return "object"
	}
	return fmt.Sprintf("%T", v)
}

// keyTypes maps each key of a JSON object to its value's type.
func keyTypes(t *testing.T, where string, v any) map[string]string {
	t.Helper()
	obj, ok := v.(map[string]any)
	if !ok {
		t.Fatalf("%s is %s, want object", where, jsonType(v))
	}
	out := make(map[string]string, len(obj))
	for k, e := range obj {
		out[k] = jsonType(e)
	}
	return out
}

// statsSchema reduces a /stats body to its key sets and value types: the
// top level, the cache block, every flow_latency entry, and one local and
// one remote backends[] entry. Values are ignored, so the schema is the
// same however the jobs were timed.
func statsSchema(t *testing.T, body map[string]any) map[string]map[string]string {
	t.Helper()
	schema := map[string]map[string]string{
		"top":   keyTypes(t, "/stats", body),
		"cache": keyTypes(t, "cache", body["cache"]),
	}
	lat, ok := body["flow_latency"].(map[string]any)
	if !ok || len(lat) == 0 {
		t.Fatalf("flow_latency = %v, want a non-empty object", body["flow_latency"])
	}
	for flowID, e := range lat {
		got := keyTypes(t, "flow_latency."+flowID, e)
		if prev, seen := schema["flow_latency[]"]; seen && fmt.Sprint(prev) != fmt.Sprint(got) {
			t.Fatalf("flow_latency entries disagree: %v vs %v", prev, got)
		}
		schema["flow_latency[]"] = got
	}
	lanes, ok := body["backends"].([]any)
	if !ok {
		t.Fatalf("backends = %v, want an array", body["backends"])
	}
	for i, l := range lanes {
		got := keyTypes(t, fmt.Sprintf("backends[%d]", i), l)
		kind := "backends[local]"
		if _, remote := got["addr"]; remote {
			kind = "backends[remote]"
		}
		schema[kind] = got
	}
	return schema
}

// TestStatsSchemaGolden pins /stats's key set and JSON value types against
// testdata/stats_schema.json, for a coordinator with one local and one
// remote lane that has served real jobs, a cache hit and a failed dispatch
// on the remote lane. Regenerate with -update after an intended schema
// change.
func TestStatsSchemaGolden(t *testing.T) {
	wk := httptest.NewServer(worker.New(worker.Options{Slots: 2, DefaultSolver: "greedy"}))
	t.Cleanup(wk.Close)

	sched, err := scheduler.New(scheduler.Options{
		Workers: 2, QueueDepth: 8, Backends: 1, Remotes: []string{wk.URL},
		ProbeInterval: 5 * time.Millisecond, RetryBase: time.Millisecond,
		CacheEntries: 16, DefaultSolver: "greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(transport.New(sched).Handler())
	t.Cleanup(func() {
		web.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sched.Shutdown(ctx)
	})

	post := func(seed int, cache string) string {
		t.Helper()
		body, _ := json.Marshal(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}, Seed: int64(seed), Cache: cache})
		resp, err := http.Post(web.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v scheduler.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit seed %d: status %d (%v)", seed, resp.StatusCode, err)
		}
		return v.ID
	}
	getStats := func() map[string]any {
		t.Helper()
		resp, err := http.Get(web.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	wait := func(id string) *scheduler.Job {
		t.Helper()
		jb := sched.Job(id)
		deadline := time.Now().Add(60 * time.Second)
		for st, _ := jb.Snapshot(); !st.Terminal(); st, _ = jb.Snapshot() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %q", id, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if st, err := jb.Snapshot(); st != scheduler.StateDone {
			t.Fatalf("job %s finished %q (%v)", id, st, err)
		}
		return jb
	}

	// Eight seeds spread over both lanes (the ring is deterministic).
	remoteSeed := 0
	for seed := 1; seed <= 8; seed++ {
		if jb := wait(post(seed, "")); jb.View().Backend == "remote-0" {
			remoteSeed = seed
		}
	}
	if remoteSeed == 0 {
		t.Fatal("no seed in 1..8 ran on the remote lane")
	}
	// One refused dispatch makes the remote lane report dispatch_failures,
	// a key /stats omits while it is zero: re-solving a remote seed (cache
	// bypass keeps its lane) is the only dispatch the fault plan sees, and
	// the retry lands the job.
	t.Cleanup(fault.Install(fault.NewPlan(fault.Rule{Point: scheduler.FaultDispatch, Kind: fault.KindRefuse, Hit: 1})))
	wait(post(remoteSeed, scheduler.CacheBypass))
	post(1, "") // a cache hit

	// Every lane heartbeats its worker, in process or not.
	var body map[string]any
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		body = getStats()
		lanes, _ := body["backends"].([]any)
		local, _ := lanes[0].(map[string]any)
		remote, _ := lanes[len(lanes)-1].(map[string]any)
		_, localRTT := local["heartbeat_rtt_ms"]
		_, rtt := remote["heartbeat_rtt_ms"]
		_, fails := remote["dispatch_failures"]
		if localRTT && rtt && fails {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lanes never reported heartbeats and a remote dispatch failure: %v", lanes)
		}
	}
	got := statsSchema(t, body)

	path := filepath.Join("testdata", "stats_schema.json")
	if *updateSchema {
		raw, _ := json.MarshalIndent(got, "", "  ")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("/stats schema drifted from %s:\n got %s\nwant %s", path, gotJSON, raw)
	}
}
