package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the placer sees. Every workload
// reports every one of them on an untraced run; what "one unit of work" is
// differs per workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"hpwl_f5_f2", "ratio"},
}

// perLayer are the single-layer metrics of a traced run, named after the
// repository's modules. A workload that does not exercise a layer reports
// 0 for it.
var perLayer = []metricDef{
	// Preparation (flow.NewRunner's stages).
	{"synth.generate_s", "s"},
	{"synth.cells", "count"},
	{"lefdef.mlef_s", "s"},
	{"placer.global_s", "s"},
	{"placer.alloc_mb", "MB"},
	{"legalize.uniform_s", "s"},
	{"baseline.assign_s", "s"},
	// Row assignment and legalization (flow.Runner.Run's stages).
	{"netlist.clone_s", "s"},
	{"core.cluster_s", "s"},
	{"core.clusters", "count"},
	{"core.model_s", "s"},
	{"core.solve_s", "s"},
	{"core.solve_nodes", "count"},
	{"core.finalize_s", "s"},
	{"core.optimal_frac", "ratio"},
	{"lefdef.revert_s", "s"},
	{"legalize.disp_f5_f2", "ratio"},
	{"legalize.fence_s", "s"},
	{"legalize.rowc_s", "s"},
	{"legalize.verify_s", "s"},
	{"netlist.metrics_s", "s"},
	// Sign-off (Table V).
	{"route.route_s", "s"},
	{"route.alloc_mb", "MB"},
	{"route.overflow", "count"},
	{"route.rwl_f5_f2", "ratio"},
	{"sta.analyze_s", "s"},
	{"sta.wns_f5_f2", "ratio"},
	{"sta.tns_f5_f2", "ratio"},
	{"power.analyze_s", "s"},
	{"power.power_f5_f2", "ratio"},
	{"exp.parallelism", "ratio"},
	// Service fabric.
	{"transport.submit_p50_ms", "ms"},
	{"transport.submit_tail_ms", "ms"},
	{"transport.refused", "count"},
	{"scheduler.queue_p50_ms", "ms"},
	{"scheduler.queue_tail_ms", "ms"},
	{"scheduler.exec_p50_ms", "ms"},
	{"scheduler.exec_tail_ms", "ms"},
	{"scheduler.dispatch_overhead_p50_ms", "ms"},
	{"scheduler.retries", "count"},
	{"scheduler.reroutes", "count"},
	{"store.cache_hit_frac", "ratio"},
	{"worker.execute_p50_ms", "ms"},
	{"worker.execute_tail_ms", "ms"},
	{"loadgen.lag_tail_ms", "ms"},
	{"loadgen.jobs_per_s", "1/s"},
	// Validity of the run itself.
	{"host.calib_ms", "ms"},
	{"check.audit_s", "s"},
}

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// tail returns the highest percentile that still has at least tailBeyond
// samples above it, or a quarter of the samples when that is fewer. Below
// 4·tailBeyond samples, ten beyond would put the tail under the upper
// quartile (under the median below 21 samples), so a short run reports its
// upper quartile instead of its single slowest sample, which one stall of
// the host decides. vs need not be sorted; it is not modified.
func tail(vs []float64) float64 {
	s := sorted(vs)
	if len(s) == 0 {
		return 0
	}
	beyond := min(tailBeyond, len(s)/4)
	return s[len(s)-1-beyond]
}

// median returns the middle sample (the mean of the two middle ones for an
// even count), or 0 for no samples.
func median(vs []float64) float64 {
	s := sorted(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// ratioMean is the mean over instances of Flow (5)'s value divided by Flow
// (2)'s — the paper's normalization, Flow (2) = 1. Instances whose Flow (2)
// value is 0 have no defined ratio and are skipped.
func ratioMean(f5, f2 []float64) float64 {
	var rs []float64
	for i := range f5 {
		if f2[i] != 0 {
			rs = append(rs, f5[i]/f2[i])
		}
	}
	if len(rs) == 0 {
		return math.NaN()
	}
	return mean(rs)
}
