// Command bench is the placer's benchmark: four workloads that together
// cover the paper's experiment, a large design and the job service, each
// reported end to end (set-up, latency, memory, quality of results) and,
// on a traced run, layer by layer. See README.md for the workloads, the
// metrics and how to run it.
//
//	bash cmd/bench/run.sh                                  # every workload, in order
//	bash cmd/bench/run.sh --workload service_local --seed 3 --seconds 20 --trace 1
//
// The last line of standard output is the result of the (last) workload as
// one JSON object. Each workload runs in a child process of its own, so
// heap state never leaks between workloads and peak_rss_mb is that child's
// maximum resident set size (paper_matrix runs each pass in a process of
// its own again and reports the median of their peaks).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// sizes fixes how much work each workload does per unit.
type sizes struct {
	// paper_matrix: exp.Table4 then exp.Table5 over these testcases.
	matrixSpecs []string
	matrixScale float64
	// matrixSets is how many instance sets (synthesis seeds) a run cycles
	// through; quality is their mean.
	matrixSets int
	// scale: scaleDesigns designs of about scaleCells cells, one per set-up
	// round (one on a traced run).
	scaleSpec    string
	scaleCells   int
	scaleDesigns int
	// service_*: the job mix, its scale, the open-loop rate in jobs/s, and
	// how far back a repeated instance reaches.
	mix        []string
	mixScale   float64
	rate       float64
	repeatBack int
	// rounds is how many times an untraced paper_matrix or service run
	// sets up; setup_s is the median.
	rounds int
}

// setupRounds is how many set-ups a run performs. A traced run does not
// report setup_s, so it sets up once.
func (sz sizes) setupRounds(trace bool) int {
	if trace {
		return 1
	}
	return sz.rounds
}

// fullSize is the benchmark as BENCHMARK.json runs it. Why each workload
// has the size it has is in README.md.
var fullSize = sizes{
	matrixSpecs:  []string{"aes_300", "ldpc_300", "jpeg_300", "fpu_4000", "point_200", "des3_250", "vga_270", "swerv_550"},
	matrixScale:  0.03,
	matrixSets:   4,
	scaleSpec:    "nova_300",
	scaleCells:   20_000,
	scaleDesigns: 5,
	mix:          []string{"ldpc_300", "jpeg_300", "fpu_4000", "des3_210", "des3_220", "des3_230"},
	mixScale:     0.02,
	rate:         20,
	repeatBack:   100,
	rounds:       9,
}

// env is one workload run's parameters.
type env struct {
	seed    int64
	budget  time.Duration
	trace   bool
	workdir string
	size    sizes
	tr      *tracer // nil on an untraced run
}

type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

// workloads run in this order when none is named.
var workloads = []workload{
	{"paper_matrix", runPaperMatrix},
	{"scale_20k", runScale},
	{"service_local", runService(false)},
	{"service_fabric", runService(true)},
}

// outcome is what a workload measured and checked.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failures  []string
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setLatency records per-unit wall times given in seconds.
func (o *outcome) setLatency(walls []float64) {
	msv := make([]float64, len(walls))
	for i, w := range walls {
		msv[i] = w * 1e3
	}
	o.setLatencyMS(msv)
}

func (o *outcome) setLatencyMS(msv []float64) {
	o.metrics["latency_p50_ms"] = median(msv)
	o.metrics["latency_tail_ms"] = tail(msv)
	o.note("latency over %d units", len(msv))
}

// report is what a child process hands its parent on standard output.
type report struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failures  []string           `json:"failures"`
	Notes     []string           `json:"notes"`
	// CalibMS times the calibration kernel before and after the workload.
	CalibMS [2]float64 `json:"calib_ms"`
}

// childTimeout bounds one workload process; the benchmark as a whole must
// finish each invocation within three minutes.
const childTimeout = 170 * time.Second

func main() {
	if arg := os.Getenv(passEnv); arg != "" {
		os.Exit(runPassProcess(arg))
	}
	name := flag.String("workload", "", "workload to run (default: every workload, in order)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "seconds each workload measures for")
	trace := flag.Int("trace", 0, "1: also replay the workload traced, report per-layer metrics and write spans")
	spans := flag.String("spans", "", "Chrome trace file of a traced run (default <workdir>/spans-<workload>.json)")
	workdir := flag.String("workdir", ".bench_build", "directory for journals and trace files")
	child := flag.Bool("child", false, "run one workload in this process (used by the parent process)")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	var names []string
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, budget: time.Duration(*seconds) * time.Second, trace: *trace == 1, workdir: *workdir, size: fullSize}
	if *child {
		path := *spans
		if path == "" {
			path = filepath.Join(*workdir, "spans-"+names[0]+".json")
		}
		os.Exit(runChild(names[0], e, path))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	os.Exit(runParent(names, e, *spans))
}

// runChild runs one workload and writes its report to standard output.
func runChild(name string, e *env, spansPath string) int {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		defer cancel()
		rep := measure(ctx, w, e, spansPath)
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	return 2
}

// measure runs one workload between two calibration timings and, on a
// traced run, writes its spans to spansPath.
func measure(ctx context.Context, w workload, e *env, spansPath string) *report {
	rep := &report{Workload: w.name}
	rep.CalibMS[0] = calibrate()
	if e.trace {
		e.tr = newTracer()
	}
	o, err := w.run(ctx, e)
	if err != nil {
		o = newOutcome()
		o.fail("%v", err)
	}
	rep.CalibMS[1] = calibrate()
	o.metrics["host.calib_ms"] = (rep.CalibMS[0] + rep.CalibMS[1]) / 2
	if e.trace {
		if err := e.tr.writeChrome(spansPath); err != nil {
			o.fail("%v", err)
		} else {
			o.note("spans written to %s", spansPath)
		}
	}
	rep.Metrics, rep.Attempted, rep.Failures, rep.Notes = o.metrics, max(o.attempted, 1), o.failures, o.notes
	return rep
}

// runParent re-executes this binary once per workload, in order, and
// prints each workload's metrics and result line. It returns the exit
// code: non-zero when any workload failed a check or did not report.
func runParent(names []string, e *env, spans string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		args := []string{"-child", "-workload", name,
			"-seed", strconv.FormatInt(e.seed, 10),
			"-seconds", strconv.Itoa(int(e.budget / time.Second)),
			"-workdir", e.workdir}
		if e.trace {
			args = append(args, "-trace", "1")
			if spans != "" {
				args = append(args, "-spans", spans)
			}
		}
		res, ok := runWorkload(exe, name, args, e.trace)
		if !ok || !res.Correct {
			code = 1
		}
	}
	return code
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one child process and prints what it reported, with
// the child's peak resident set size added.
func runWorkload(exe, name string, args []string, trace bool) (result, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return result{}, false
	}
	var rep report
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: bad report: %v\n", name, err)
		return result{}, false
	}
	res := resultFor(&rep, trace, peakRSSMB(cmd.ProcessState))
	printReport(name, &rep, res, trace)
	return res, true
}

// peakRSSMB is the maximum resident set size of an ended process, in MB.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// resultFor assembles the result line: the end-to-end metrics on an
// untraced run, the per-layer metrics on a traced one. peakMB is the
// workload process's peak resident set size; it is peak_rss_mb unless the
// workload measured the processes that did its work itself. A metric the
// workload did not set, or set to a non-finite value, fails the run.
func resultFor(rep *report, trace bool, peakMB float64) result {
	if _, ok := rep.Metrics["peak_rss_mb"]; !ok {
		rep.Metrics["peak_rss_mb"] = peakMB
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Attempted: rep.Attempted, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok && trace {
			v, ok = 0, true // a layer this workload does not exercise
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s not measured (%v)", d.Name, v))
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Failed = len(rep.Failures)
	res.Correct = res.Failed == 0
	return res
}

// printReport prints every metric by name with its unit, the checks'
// verdicts and the host record, then the result line.
func printReport(name string, rep *report, res result, trace bool) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	host, _ := json.Marshal(hostRecord(rep.CalibMS))
	fmt.Fprintf(w, "%s host %s\n", name, host)
	defs := endToEnd
	if trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		if v, ok := rep.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%s %-36s %14.6g %s\n", name, d.Name, v, d.Unit)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "%s note %s\n", name, n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "%s FAIL %s\n", name, f)
	}
	verdict := "all checks passed"
	if !res.Correct {
		verdict = fmt.Sprintf("%d checks failed", res.Failed)
	}
	fmt.Fprintf(w, "%s %s (%d units attempted)\n", name, verdict, res.Attempted)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// hostRecord describes where the numbers were taken.
func hostRecord(calib [2]float64) map[string]any {
	h := map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"vcs_revision": "unknown", "vcs_modified": "unknown",
		"calib_before_ms": calib[0], "calib_after_ms": calib[1],
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["vcs_revision"] = s.Value
			case "vcs.modified":
				h["vcs_modified"] = s.Value
			}
		}
	}
	return h
}

// calibIters sizes the calibration kernel to about 220 ms on the reference
// host (2 vCPU x86-64).
const calibIters = 100_000_000

var calibSink uint64

// calibrate times a fixed pure-Go integer kernel, in ms. It touches no
// memory, so it reads the speed a core gives this process: comparing it
// before and after a workload, and across runs, tells host drift apart from
// a change in the placer.
func calibrate() float64 {
	t0 := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x >> 60
	}
	calibSink = acc
	return ms(time.Since(t0))
}
