package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"mthplace/internal/flow"
	"mthplace/internal/metrics"
	"mthplace/internal/obs"
	"mthplace/internal/synth"
)

// tiny returns a config with two small testcases for fast experiment runs.
func tiny(t *testing.T) Config {
	t.Helper()
	var specs []synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == "aes_360" || s.Name() == "fpu_4500" {
			specs = append(specs, s)
		}
	}
	cfg := Config{Scale: 0.015, Specs: specs}
	cfg = cfg.withDefaults()
	cfg.Flow.Placer.OuterIters = 4
	cfg.Flow.Placer.SolveSweeps = 6
	return cfg
}

func TestTable2(t *testing.T) {
	res, err := Table2(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Cells <= 0 || r.Nets <= r.Cells || r.MinorityPct <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
	out := res.Table().String()
	if !strings.Contains(out, "aes_360") {
		t.Error("table missing testcase name")
	}
}

func TestTable4(t *testing.T) {
	res, err := Table4(context.Background(), tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for k, d := range row.Disp {
			if d <= 0 {
				t.Errorf("%s: flow %d zero displacement", row.Name, k+2)
			}
		}
		for k, h := range row.HPWL {
			if h <= 0 {
				t.Errorf("%s: flow %d zero HPWL", row.Name, k+1)
			}
		}
	}
	// Normalized rows: Flow 2 column must be exactly 1.
	if res.NormDisp[0] != 1 || res.NormHPWL[1] != 1 || res.NormTime[0] != 1 {
		t.Errorf("normalisation base wrong: %v %v %v", res.NormDisp, res.NormHPWL, res.NormTime)
	}
	if !strings.Contains(res.Table().String(), "Normalized") {
		t.Error("table missing Normalized row")
	}
}

func TestTable5AndOverhead(t *testing.T) {
	cfg := tiny(t)
	t5, err := Table5(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t5.Rows {
		for k := range row.WL {
			if row.WL[k] <= 0 || row.Power[k] <= 0 {
				t.Errorf("%s: flow col %d missing WL/power", row.Name, k)
			}
			if row.WNS[k] > 0 || row.TNS[k] > 0 {
				t.Errorf("%s: positive WNS/TNS", row.Name)
			}
		}
	}
	if t5.NormWL[1] != 1 || t5.NormPower[1] != 1 {
		t.Error("table 5 normalisation base wrong")
	}
	m, err := RunMatrix(context.Background(), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := m.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// Row-constraint flows should cost HPWL/WL vs unconstrained on average.
	if ov.HPWLFlow2 < -50 || ov.HPWLFlow2 > 300 {
		t.Errorf("implausible HPWL overhead %f", ov.HPWLFlow2)
	}
	if !strings.Contains(ov.Table().String(), "routed wirelength") {
		t.Error("overhead table malformed")
	}
}

func TestFig4aSweep(t *testing.T) {
	cfg := tiny(t)
	sw, err := RunSSweep(context.Background(), cfg, []float64{0.2, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Ablation(); err == nil {
		t.Error("ablation of a sweep without s = 1.0 and 0.5 succeeded")
	}
	res := sw.Fig4a()
	if len(res.Values) != 2 || len(res.NormDisp) != 2 || len(res.NormHPWL) != 2 || len(res.NormRuntime) != 2 {
		t.Fatalf("series sizes wrong: %+v", res)
	}
	for _, v := range append(append([]float64{}, res.NormDisp...), res.NormHPWL...) {
		if v < 0 || v > 1 {
			t.Errorf("normalised value %f out of [0,1]", v)
		}
	}
	if res.Best != 0.2 && res.Best != 0.6 {
		t.Errorf("Best = %f not a sweep value", res.Best)
	}
	if !strings.Contains(res.Table().String(), "chosen") {
		t.Error("sweep table missing chosen marker")
	}
}

func TestFig4bSweep(t *testing.T) {
	cfg := tiny(t)
	res, err := Fig4b(context.Background(), cfg, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if res.Param != "alpha" || len(res.NormDisp) != 2 {
		t.Fatalf("bad result %+v", res)
	}
	if res.NormRuntime != nil {
		t.Error("alpha sweep must not report runtime")
	}
}

func TestFig5(t *testing.T) {
	cfg := tiny(t)
	m, err := RunMatrix(context.Background(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Fig5()
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.NumMinority <= 0 || p.ILPSeconds < 0 {
			t.Errorf("bad point %+v", p)
		}
	}
}

func TestAblation(t *testing.T) {
	cfg := tiny(t)
	sw, err := RunSSweep(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sw.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if res.TestcaseCount != 2 {
		t.Fatalf("count = %d", res.TestcaseCount)
	}
	// s = 1.0 is the reference: zero runtime cut and zero overheads.
	if res.RuntimeCut[0] != 0 || res.DispOverhead[0] != 0 || res.HPWLOverhead[0] != 0 {
		t.Errorf("reference row not zero: %+v", res)
	}
}

func TestProfile(t *testing.T) {
	cfg := tiny(t)
	m, err := RunMatrix(context.Background(), cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Profile()
	total := res.Count[0] + res.Count[1] + res.Count[2]
	if total != 2 {
		t.Fatalf("classified %d of 2", total)
	}
	for c := 0; c < 3; c++ {
		if res.Count[c] == 0 {
			continue
		}
		sum := res.RAPShare[c] + res.LegalShare[c]
		if sum < 99 || sum > 101 {
			t.Errorf("class %d shares sum to %f", c, sum)
		}
	}
}

// TestMatrixRunsEachFlowOnce renders every view of one routed matrix and
// counts the work under a tracer: one preparation per testcase, and one
// route for each of Flows 1, 2, 4 and 5.
func TestMatrixRunsEachFlowOnce(t *testing.T) {
	cfg := tiny(t)
	tr := obs.NewTracer()
	m, err := RunMatrix(obs.WithTracer(context.Background(), tr), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	t5, err := m.Table5()
	if err != nil {
		t.Fatal(err)
	}
	ov, err := m.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*metrics.Table{m.Table4().Table(), t5.Table(), m.Fig5().Table(), m.Profile().Table(), ov.Table()} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", tab.Title)
		}
	}
	count := map[string]int{}
	for _, name := range tr.Spans() {
		count[name]++
	}
	if n := len(cfg.Specs); count["flow.parse"] != n || count["flow.route"] != 4*n {
		t.Errorf("flow.parse %d, flow.route %d spans for %d testcases; want %d and %d",
			count["flow.parse"], count["flow.route"], n, n, 4*n)
	}
}

func TestUnroutedMatrixRefusesPostRouteViews(t *testing.T) {
	m := &Matrix{Scale: 0.1, Rows: []MatrixRow{{Name: "x"}}}
	if _, err := m.Table5(); err == nil {
		t.Error("Table V of an unrouted matrix succeeded")
	}
	if _, err := m.Overhead(); err == nil {
		t.Error("overhead study of an unrouted matrix succeeded")
	}
}

// TestConfigDefaultsKeepFlowSettings: defaulting fills the stage options a
// caller left at zero and keeps everything it set.
func TestConfigDefaultsKeepFlowSettings(t *testing.T) {
	var cfg Config
	cfg.Flow.Verify = true
	cfg.Flow.Placer.OuterIters = 3
	cfg.Flow.Core.Solve.Backend = "greedy"
	got := cfg.withDefaults().Flow
	if !got.Verify || got.Placer.OuterIters != 3 || got.Core.Solve.Backend != "greedy" {
		t.Errorf("caller settings lost: Verify %v, OuterIters %d, Backend %q",
			got.Verify, got.Placer.OuterIters, got.Core.Solve.Backend)
	}
	def := flow.DefaultConfig()
	if got.FencePasses != def.FencePasses || got.Core.S != def.Core.S || got.Baseline != def.Baseline ||
		got.Core.Solve.MaxNodes != def.Core.Solve.MaxNodes || got.Synth.Utilization != def.Synth.Utilization {
		t.Errorf("zero stage options not defaulted: %+v", got)
	}
}

func TestConfigLogging(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny(t)
	cfg.Log = obs.NewCLILogger(&buf, false, false)
	if _, err := Table2(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "table2:") {
		t.Error("progress log missing")
	}
}
