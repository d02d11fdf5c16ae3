package scheduler

import (
	"sort"
	"sync"
	"time"

	"mthplace/internal/flow"
)

// maxLatencySamples bounds the per-flow latency history; older samples are
// overwritten ring-buffer style so stats stay O(1) in memory no matter how
// long the scheduler runs.
const maxLatencySamples = 512

// latencyRing keeps the most recent completion latencies of one flow.
type latencyRing struct {
	samples []time.Duration
	next    int
	total   int
}

func (r *latencyRing) add(d time.Duration) {
	if len(r.samples) < maxLatencySamples {
		r.samples = append(r.samples, d)
	} else {
		r.samples[r.next] = d
		r.next = (r.next + 1) % maxLatencySamples
	}
	r.total++
}

// percentile returns the p-th percentile (0 < p <= 100) of the retained
// samples with nearest-rank interpolation.
func (r *latencyRing) percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FlowLatency summarises one flow's recent completion latencies.
type FlowLatency struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
}

// stats keeps the two service measurements the scheduler's registry has no
// series for: per-flow completion latencies and the accumulated busy time
// of finished jobs. Every counter lives in the registry instead. All
// methods are safe for concurrent use.
type stats struct {
	start time.Time

	mu        sync.Mutex
	busyNanos time.Duration // accumulated busy time of finished jobs
	perFlow   map[flow.ID]*latencyRing
}

func newStats() *stats {
	return &stats{start: time.Now(), perFlow: map[flow.ID]*latencyRing{}}
}

// addBusy credits a finished job's run time to the worker pool.
func (s *stats) addBusy(d time.Duration) {
	s.mu.Lock()
	s.busyNanos += d
	s.mu.Unlock()
}

// uptime is the wall clock since scheduler start.
func (s *stats) uptime() time.Duration { return time.Since(s.start) }

func (s *stats) recordFlow(id flow.ID, d time.Duration) {
	s.mu.Lock()
	r := s.perFlow[id]
	if r == nil {
		r = &latencyRing{}
		s.perFlow[id] = r
	}
	r.add(d)
	s.mu.Unlock()
}

// snapshot renders the latency percentiles and the busy-time fraction of
// a pool of workers since start. In-flight jobs are credited on
// completion only.
func (s *stats) snapshot(workers int) (utilization float64, perFlow map[string]FlowLatency) {
	s.mu.Lock()
	defer s.mu.Unlock()
	capacity := time.Since(s.start) * time.Duration(workers)
	if capacity > 0 {
		utilization = min(float64(s.busyNanos)/float64(capacity), 1)
	}
	out := make(map[string]FlowLatency, len(s.perFlow))
	for id, r := range s.perFlow {
		sorted := append([]time.Duration(nil), r.samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out[id.String()] = FlowLatency{
			Count: r.total,
			P50ms: float64(r.percentile(sorted, 50)) / float64(time.Millisecond),
			P90ms: float64(r.percentile(sorted, 90)) / float64(time.Millisecond),
			P99ms: float64(r.percentile(sorted, 99)) / float64(time.Millisecond),
		}
	}
	return utilization, out
}
