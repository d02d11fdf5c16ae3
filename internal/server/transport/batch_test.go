package transport_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"mthplace/internal/server/scheduler"
)

// TestV1Aliases: every pre-versioning path answers identically under /v1/.
func TestV1Aliases(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4})
	id := h.submit(scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}})
	h.waitState(id, scheduler.StateDone)

	for _, path := range []string{"/jobs", "/v1/jobs", "/jobs/" + id, "/v1/jobs/" + id,
		"/jobs/" + id + "/result", "/v1/jobs/" + id + "/result"} {
		if code, _ := h.do("GET", path, nil); code != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, code)
		}
	}
	if code, _ := h.do("POST", "/v1/jobs", scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02}); code != http.StatusAccepted {
		t.Errorf("POST /v1/jobs: status %d, want 202", code)
	}
}

// TestBatchEndpointWithCache drives the full batch + cache scenario over
// HTTP: a cold solve populates the cache, then a batch of two identical
// instances is answered entirely from it, with /stats reporting the hits.
func TestBatchEndpointWithCache(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 2, QueueDepth: 8, CacheEntries: 32, DefaultSolver: "greedy"})
	req := scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}}

	cold := h.submit(req)
	h.waitState(cold, scheduler.StateDone)

	code, body := h.do("POST", "/v1/jobs:batch", map[string]any{"jobs": []scheduler.JobRequest{req, req}})
	if code != http.StatusAccepted {
		t.Fatalf("batch: status %d, body %v", code, body)
	}
	var accepted int
	if err := json.Unmarshal(body["accepted"], &accepted); err != nil || accepted != 2 {
		t.Fatalf("accepted = %d (%v), want 2", accepted, err)
	}
	var slots []struct {
		Job *scheduler.JobView `json:"job"`
	}
	if err := json.Unmarshal(body["jobs"], &slots); err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		if slot.Job == nil {
			t.Fatalf("slot %d carries no job", i)
		}
		if !slot.Job.CacheHit || slot.Job.State != scheduler.StateDone {
			t.Errorf("slot %d: state %q cache_hit %v, want done from cache",
				i, slot.Job.State, slot.Job.CacheHit)
		}
		code, rbody := h.do("GET", "/v1/jobs/"+slot.Job.ID+"/result", nil)
		if code != http.StatusOK {
			t.Fatalf("slot %d result: status %d", i, code)
		}
		var hit bool
		if err := json.Unmarshal(rbody["cache_hit"], &hit); err != nil || !hit {
			t.Errorf("slot %d result cache_hit = %v (%v)", i, hit, err)
		}
	}

	_, sbody := h.do("GET", "/stats", nil)
	var cache struct {
		Enabled bool  `json:"enabled"`
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
	}
	if err := json.Unmarshal(sbody["cache"], &cache); err != nil {
		t.Fatalf("stats cache block: %v", err)
	}
	if !cache.Enabled || cache.Hits != 2 || cache.Misses != 1 {
		t.Errorf("stats cache = %+v, want enabled with 2 hits / 1 miss", cache)
	}
	var backends []struct {
		Name     string `json:"name"`
		Capacity int    `json:"capacity"`
	}
	if err := json.Unmarshal(sbody["backends"], &backends); err != nil || len(backends) != 1 {
		t.Fatalf("stats backends = %v (%v), want one lane", backends, err)
	}

	// The private registry carries the canonical cache series.
	out := h.scrape()
	for _, series := range []string{"mth_cache_hits_total 2", "mth_cache_misses_total 1"} {
		if !bytes.Contains([]byte(out), []byte(series)) {
			t.Errorf("metrics exposition missing %q", series)
		}
	}
}

// TestCacheControlHeader: the standard Cache-Control request header maps
// onto the job's cache directive.
func TestCacheControlHeader(t *testing.T) {
	h := newHarness(t, scheduler.Options{Workers: 1, QueueDepth: 4, CacheEntries: 16, DefaultSolver: "greedy"})
	req := scheduler.JobRequest{Testcase: "aes_300", Scale: 0.02, Flows: []int{5}}

	id := h.submit(req)
	h.waitState(id, scheduler.StateDone)

	// no-cache forces a fresh solve even though the entry is resident.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest("POST", h.web.URL+"/v1/jobs", &buf)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Cache-Control", "no-cache")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no-cache submit: status %d", resp.StatusCode)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		t.Errorf("X-Cache = %q under no-cache, want MISS", xc)
	}

	// A plain resubmission hits and says so in the header.
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(h.web.URL+"/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if xc := resp2.Header.Get("X-Cache"); xc != "HIT" {
		t.Errorf("X-Cache = %q on resident resubmission, want HIT", xc)
	}
}
