package exp

import (
	"context"
	"fmt"

	"mthplace/internal/flow"
	"mthplace/internal/metrics"
)

// DefaultSValues are the clustering-resolution sweep points of Fig. 4(a).
var DefaultSValues = []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0}

// DefaultAlphaValues are the α sweep points of Fig. 4(b).
var DefaultAlphaValues = []float64{0, 0.25, 0.5, 0.75, 1.0}

// SweepResult holds one parameter sweep: per sweep point, the 0–1
// normalised-and-averaged metrics, as plotted in Fig. 4.
type SweepResult struct {
	Scale  float64
	Param  string
	Values []float64
	// NormDisp/NormHPWL/NormRuntime are averaged 0–1 normalised series
	// (runtime only for the s sweep).
	NormDisp    []float64
	NormHPWL    []float64
	NormRuntime []float64
	// Best is the recommended value (minimising disp+HPWL, runtime as
	// tiebreak) — the paper's red arrow.
	Best float64
}

// series is one testcase's raw Flow 4 outcome at each sweep point.
type series struct{ disp, hpwl, rap []float64 }

// sweep runs Flow 4 once per value on one runner per testcase; set applies
// a value to the runner's config. The values run in order on each runner
// because set mutates its config.
func sweep(ctx context.Context, cfg Config, param string, values []float64, set func(*flow.Config, float64)) ([]series, error) {
	return forEachSpec(ctx, cfg, func(r *flow.Runner) (series, error) {
		s := series{make([]float64, len(values)), make([]float64, len(values)), make([]float64, len(values))}
		for vi, v := range values {
			set(&r.Cfg, v)
			res, err := r.Run(ctx, flow.Flow4, false)
			if err != nil {
				return series{}, fmt.Errorf("%s=%.2f: %w", param, v, err)
			}
			s.disp[vi] = float64(res.Metrics.Displacement)
			s.hpwl[vi] = float64(res.Metrics.HPWL)
			s.rap[vi] = res.Metrics.RAPTime.Seconds()
			cfg.logf("sweep: %s %s=%.2f disp=%.0f hpwl=%.0f rap=%.2fs",
				r.Spec.Name(), param, v, s.disp[vi], s.hpwl[vi], s.rap[vi])
		}
		return s, nil
	})
}

// sweepResult normalises each testcase's series to 0–1 and averages them
// per sweep point; withRuntime adds the ILP-runtime series.
func sweepResult(scale float64, param string, values []float64, all []series, withRuntime bool) *SweepResult {
	var dispSeries, hpwlSeries, timeSeries [][]float64
	for _, s := range all {
		dispSeries = append(dispSeries, metrics.ZeroOne(s.disp))
		hpwlSeries = append(hpwlSeries, metrics.ZeroOne(s.hpwl))
		timeSeries = append(timeSeries, metrics.ZeroOne(s.rap))
	}
	out := &SweepResult{Scale: scale, Param: param, Values: values,
		NormDisp: metrics.MeanColumns(dispSeries), NormHPWL: metrics.MeanColumns(hpwlSeries)}
	if withRuntime {
		out.NormRuntime = metrics.MeanColumns(timeSeries)
	}
	out.Best = pickBest(values, out.NormDisp, out.NormHPWL, out.NormRuntime)
	return out
}

// SSweep is one run of the clustering-resolution sweep: Flow 4 (the
// proposed assignment under the prior work's legalization) at each s on
// every representative testcase. Fig. 4(a) and the §IV-B.4 ablation are
// views of it.
type SSweep struct {
	Scale  float64
	Values []float64
	series []series
}

// RunSSweep runs the s sweep on the 14 representative testcases (or the
// configured subset); nil values means DefaultSValues.
func RunSSweep(ctx context.Context, cfg Config, values []float64) (*SSweep, error) {
	cfg = cfg.withDefaults().representative()
	if values == nil {
		values = DefaultSValues
	}
	all, err := sweep(ctx, cfg, "s", values, func(c *flow.Config, s float64) { c.Core.S = s })
	if err != nil {
		return nil, err
	}
	return &SSweep{Scale: cfg.Scale, Values: values, series: all}, nil
}

// Fig4a is the Fig. 4(a) view: post-placement displacement, HPWL and ILP
// runtime against s.
func (s *SSweep) Fig4a() *SweepResult {
	return sweepResult(s.Scale, "s", s.Values, s.series, true)
}

// Fig4b sweeps α at fixed s on the representative testcases, measuring
// displacement and HPWL (Fig. 4(b)); nil values means DefaultAlphaValues.
func Fig4b(ctx context.Context, cfg Config, values []float64) (*SweepResult, error) {
	cfg = cfg.withDefaults().representative()
	if values == nil {
		values = DefaultAlphaValues
	}
	all, err := sweep(ctx, cfg, "alpha", values, func(c *flow.Config, a float64) { c.Core.Cost.Alpha = a })
	if err != nil {
		return nil, err
	}
	return sweepResult(cfg.Scale, "alpha", values, all, false), nil
}

// pickBest selects the sweep value minimising disp+HPWL with runtime as a
// mild tiebreaker (×0.25), mirroring the paper's manual "red arrow" choice.
func pickBest(values, disp, hpwl, rt []float64) float64 {
	best, bestCost := values[0], 1e18
	for i := range values {
		c := disp[i] + hpwl[i]
		if rt != nil {
			c += 0.25 * rt[i]
		}
		if c < bestCost {
			best, bestCost = values[i], c
		}
	}
	return best
}

// Table renders a sweep.
func (r *SweepResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Fig. 4 sweep of %s (scale %.2f; 0-1 normalised, averaged over testcases)", r.Param, r.Scale),
		Headers: []string{r.Param, "norm disp", "norm HPWL", "norm ILP time"},
	}
	for i, v := range r.Values {
		rt := "-"
		if r.NormRuntime != nil {
			rt = metrics.F(r.NormRuntime[i], 3)
		}
		mark := ""
		if v == r.Best {
			mark = "  <== chosen"
		}
		t.Add(metrics.F(v, 2), metrics.F(r.NormDisp[i], 3), metrics.F(r.NormHPWL[i], 3), rt+mark)
	}
	return t
}

// Fig5Point is one testcase's ILP scaling sample.
type Fig5Point struct {
	Name        string
	NumMinority int
	ILPSeconds  float64
}

// Fig5Result is the ILP-runtime-vs-minority-count scaling study.
type Fig5Result struct {
	Scale  float64
	Points []Fig5Point
	// Slope/Intercept/R of the least-squares line (paper: strong linear
	// correlation).
	Slope, Intercept, R float64
}

// Fig5 is the Fig. 5 view of the matrix: Flow (5)'s ILP runtime against
// the number of minority instances, with its least-squares fit.
func (m *Matrix) Fig5() *Fig5Result {
	out := &Fig5Result{Scale: m.Scale}
	var xs, ys []float64
	for _, row := range m.Rows {
		f5 := row.Flows[flow.Flow5-1]
		p := Fig5Point{Name: row.Name, NumMinority: f5.NumMinority, ILPSeconds: f5.RAPTime.Seconds()}
		out.Points = append(out.Points, p)
		xs = append(xs, float64(p.NumMinority))
		ys = append(ys, p.ILPSeconds)
	}
	out.Slope, out.Intercept, out.R = metrics.LinearFit(xs, ys)
	return out
}

// Table renders the scaling study.
func (r *Fig5Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Fig. 5 — ILP runtime vs minority instances (scale %.2f; fit: t = %.3g·n %+.3g, r = %.3f)",
			r.Scale, r.Slope, r.Intercept, r.R),
		Headers: []string{"testcase", "#minority", "ILP time (s)"},
	}
	for _, p := range r.Points {
		t.Add(p.Name, fmt.Sprint(p.NumMinority), metrics.F(p.ILPSeconds, 3))
	}
	return t
}
