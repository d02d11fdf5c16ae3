package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are a metric's constant label set. Series within one family are
// keyed by their sorted, rendered label pairs.
type Labels map[string]string

// render returns the canonical {k="v",...} form, sorted by key; empty labels
// render as "".
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, labelEscaper.Replace(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value per the Prometheus text exposition
// format, which defines exactly three escapes inside a quoted label value:
// backslash, double quote, and newline. Go's %q is not equivalent — it also
// escapes tabs, non-printables, and non-ASCII, which scrapers read back as
// literal backslash sequences.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper escapes HELP text, where the format defines backslash and
// newline escapes (quotes are legal raw).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the series to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomic via CAS).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket float64 distribution. Buckets are upper
// bounds; an implicit +Inf bucket catches the rest. Observe is lock-free.
type Histogram struct {
	buckets []float64      // sorted upper bounds, excluding +Inf
	counts  []atomic.Int64 // len(buckets)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// StageBuckets are the default duration buckets (seconds) for the
// mth_stage_seconds histogram: placement stages range from sub-millisecond
// (tiny scales in tests) to minutes (paper-size ILP solves).
var StageBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every series of one metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64 // histograms only

	mu     sync.Mutex
	series map[string]any // rendered labels -> *Counter/*Gauge/*Histogram
	order  []string       // registration order of label keys, for stable output
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// (name, labels) series returns the same instance, so package-level
// instrumentation can re-register freely. Registering one name with two
// different types panics — that is a programming error, not runtime input.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Default is the process-wide registry: the flow/solver instrumentation
// records here, and servers export it at GET /metrics.
var Default = NewRegistry()

func (r *Registry) fam(name, help string, typ metricType, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, series: map[string]any{}}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %v and %v", name, f.typ, typ))
	}
	return f
}

func (f *family) get(labels Labels, make func() any) any {
	key := labels.render()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = make()
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter registers (or finds) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.fam(name, help, typeCounter, nil)
	return f.get(labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or finds) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.fam(name, help, typeGauge, nil)
	return f.get(labels, func() any { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or finds) a histogram series with the given bucket
// upper bounds (the family's first registration fixes the buckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	f := r.fam(name, help, typeHistogram, buckets)
	return f.get(labels, func() any {
		h := &Histogram{buckets: f.buckets}
		h.counts = make([]atomic.Int64, len(f.buckets)+1)
		return h
	}).(*Histogram)
}

// Canonical solve-cache series names. Exposed as helpers so the scheduler,
// tests and dashboards agree on spelling; the registry argument (nil for
// Default) keeps per-server isolation — each server registers the pair in
// its own private registry.
const (
	cacheHitsName   = "mth_cache_hits_total"
	cacheMissesName = "mth_cache_misses_total"
)

// CacheHits registers (or finds) the solve-cache hit counter in r
// (obs.Default when nil).
func CacheHits(r *Registry) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter(cacheHitsName, "Job-level solve-cache lookups answered entirely from cache.", nil)
}

// CacheMisses registers (or finds) the solve-cache miss counter in r
// (obs.Default when nil).
func CacheMisses(r *Registry) *Counter {
	if r == nil {
		r = Default
	}
	return r.Counter(cacheMissesName, "Job-level solve-cache lookups that required a cold solve.", nil)
}

// WriteProm renders every family in Prometheus text exposition format,
// families sorted by name and series in registration order.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.fams[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		f.mu.Lock()
		for _, key := range f.order {
			switch s := f.series[key].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, key, s.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %v\n", f.name, key, s.Value())
			case *Histogram:
				writeHistogram(&b, f.name, key, s)
			}
		}
		f.mu.Unlock()
	}
	_, err := w.Write([]byte(b.String()))
	return err
}

// writeHistogram renders one histogram series: cumulative _bucket lines, a
// _sum and a _count, with the extra le label spliced into the series labels.
func writeHistogram(b *strings.Builder, name, key string, h *Histogram) {
	var cum int64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, spliceLabel(key, "le", formatBound(ub)), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, spliceLabel(key, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %v\n", name, key, h.Sum())
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, h.Count())
}

// spliceLabel adds one k="v" pair to a rendered label set.
func spliceLabel(key, k, v string) string {
	v = labelEscaper.Replace(v)
	if key == "" {
		return fmt.Sprintf("{%s=\"%s\"}", k, v)
	}
	return fmt.Sprintf("%s,%s=\"%s\"}", key[:len(key)-1], k, v)
}

// formatBound renders a bucket upper bound the way Prometheus does
// (shortest float form; %g already drops trailing zeros).
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}

// Handler serves the registry at GET in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteProm(w)
	})
}

// SolveTotal is the canonical RAP solve counter, labelled by
// degradation-ladder rung and solver backend
// (mth_solve_total{rung="ilp|anytime|greedy|baseline",solver="rap|greedy|baseline"}).
func SolveTotal(rung, solver string) *Counter {
	return Default.Counter("mth_solve_total",
		"RAP solves completed, by degradation-ladder rung and solver backend.",
		Labels{"rung": rung, "solver": solver})
}

// StageSeconds is the canonical flow stage-duration histogram
// (mth_stage_seconds{stage="parse|cluster|solve|legalize|route"}).
func StageSeconds(stage string) *Histogram {
	return Default.Histogram("mth_stage_seconds",
		"Wall-clock seconds spent per flow stage.", StageBuckets, Labels{"stage": stage})
}
