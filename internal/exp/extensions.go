package exp

import (
	"context"
	"fmt"

	"mthplace/internal/flow"
	"mthplace/internal/heightswap"
	"mthplace/internal/metrics"
)

// FinFlexRow compares the proposed customised rows (Flow 5) against the
// pre-determined FinFlex-style pattern on one testcase.
type FinFlexRow struct {
	Name        string
	Pattern     string
	HPWLFlow5   int64
	HPWLFinFlex int64
	WLFlow5     int64
	WLFinFlex   int64
}

// FinFlexResult is the future-work study: customised rows vs pre-determined
// patterns (§V of the paper suggests this comparison).
type FinFlexResult struct {
	Scale float64
	Rows  []FinFlexRow
	// NormHPWL/NormWL are FinFlex relative to Flow 5 (≥ 1 means the
	// customised rows win).
	NormHPWL float64
	NormWL   float64
}

// FinFlexStudy runs Flow (5) and the auto-fitted one-in-n pattern flow on
// every configured testcase, with routing.
func FinFlexStudy(ctx context.Context, cfg Config) (*FinFlexResult, error) {
	cfg = cfg.withDefaults().representative()
	out := &FinFlexResult{Scale: cfg.Scale}
	type rowOpt struct {
		row FinFlexRow
		ok  bool
	}
	rows, err := forEachSpec(ctx, cfg, func(r *flow.Runner) (rowOpt, error) {
		spec := r.Spec
		f5, err := r.Run(ctx, flow.Flow5, true)
		if err != nil {
			return rowOpt{}, fmt.Errorf("flow5: %w", err)
		}
		ff, err := r.RunFinFlex(ctx, nil, true)
		if err != nil {
			cfg.logf("finflex: %s skipped: %v", spec.Name(), err)
			return rowOpt{}, nil
		}
		row := FinFlexRow{
			Name:        spec.Name(),
			HPWLFlow5:   f5.Metrics.HPWL,
			HPWLFinFlex: ff.Metrics.HPWL,
			WLFlow5:     f5.Metrics.RoutedWL,
			WLFinFlex:   ff.Metrics.RoutedWL,
		}
		cfg.logf("finflex: %s hpwl %d vs %d", spec.Name(), row.HPWLFlow5, row.HPWLFinFlex)
		return rowOpt{row, true}, nil
	})
	if err != nil {
		return nil, err
	}
	var hr, wr [][]float64
	for _, ro := range rows {
		if !ro.ok {
			continue
		}
		out.Rows = append(out.Rows, ro.row)
		hr = append(hr, []float64{float64(ro.row.HPWLFlow5), float64(ro.row.HPWLFinFlex)})
		wr = append(wr, []float64{float64(ro.row.WLFlow5), float64(ro.row.WLFinFlex)})
	}
	if nh := metrics.NormalizedMean(hr, 0); len(nh) == 2 {
		out.NormHPWL = nh[1]
	}
	if nw := metrics.NormalizedMean(wr, 0); len(nw) == 2 {
		out.NormWL = nw[1]
	}
	return out, nil
}

// Table renders the study.
func (r *FinFlexResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Customised rows (Flow 5) vs pre-determined pattern (FinFlex-style) — scale %.2f; "+
			"normalized FinFlex/Flow5: HPWL %.3f, routed WL %.3f", r.Scale, r.NormHPWL, r.NormWL),
		Headers: []string{"testcase", "HPWL(5)", "HPWL(ff)", "WL(5)", "WL(ff)"},
	}
	for _, row := range r.Rows {
		t.Add(row.Name,
			metrics.F(float64(row.HPWLFlow5)/1e5, 2), metrics.F(float64(row.HPWLFinFlex)/1e5, 2),
			metrics.F(float64(row.WLFlow5)/1e5, 2), metrics.F(float64(row.WLFinFlex)/1e5, 2))
	}
	return t
}

// SwapRow is one testcase's height-swap outcome.
type SwapRow struct {
	Name      string
	Swaps     int
	WNSBefore float64
	WNSAfter  float64
	TNSBefore float64
	TNSAfter  float64
}

// SwapResult is the height-swapping future-work study.
type SwapResult struct {
	Scale float64
	Rows  []SwapRow
}

// SwapStudy runs Flow (5) and then the track-height swapping pass on every
// configured testcase.
func SwapStudy(ctx context.Context, cfg Config) (*SwapResult, error) {
	cfg = cfg.withDefaults().representative()
	out := &SwapResult{Scale: cfg.Scale}
	rows, err := forEachSpec(ctx, cfg, func(r *flow.Runner) (SwapRow, error) {
		spec := r.Spec
		res, err := r.Run(ctx, flow.Flow5, false)
		if err != nil {
			return SwapRow{}, fmt.Errorf("flow5: %w", err)
		}
		rep, err := heightswap.Optimize(ctx, res.Design, res.Stack, heightswap.Options{})
		if err != nil {
			return SwapRow{}, fmt.Errorf("swap: %w", err)
		}
		cfg.logf("swap: %s swaps=%d wns %.1f -> %.1f", spec.Name(), rep.SwapsApplied, rep.WNSBefore, rep.WNSAfter)
		return SwapRow{
			Name:      spec.Name(),
			Swaps:     rep.SwapsApplied,
			WNSBefore: rep.WNSBefore,
			WNSAfter:  rep.WNSAfter,
			TNSBefore: rep.TNSBefore,
			TNSAfter:  rep.TNSAfter,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Rows = rows
	return out, nil
}

// Table renders the study.
func (r *SwapResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Track-height swapping after Flow 5 (future work §V; scale %.2f; WNS/TNS in ns)", r.Scale),
		Headers: []string{"testcase", "swaps", "WNS before", "WNS after", "TNS before", "TNS after"},
	}
	for _, row := range r.Rows {
		t.Add(row.Name, fmt.Sprint(row.Swaps),
			metrics.F(row.WNSBefore/1000, 3), metrics.F(row.WNSAfter/1000, 3),
			metrics.F(row.TNSBefore/1000, 1), metrics.F(row.TNSAfter/1000, 1))
	}
	return t
}
