package exp

import (
	"fmt"
	"slices"

	"mthplace/internal/flow"
	"mthplace/internal/metrics"
)

// AblationResult is the clustering-impact study of §IV-B.4: the unclustered
// ILP (s = 1) against s = 0.5 (two cells per cluster on average) and the
// chosen s = 0.2, under the same legalization (Flow 4 pipeline).
type AblationResult struct {
	Scale float64
	// Per sweep point (s = 1.0, 0.5, 0.2): mean ILP runtime reduction vs
	// unclustered (%), displacement overhead (%), HPWL overhead (%).
	SValues       []float64
	RuntimeCut    []float64
	DispOverhead  []float64
	HPWLOverhead  []float64
	TestcaseCount int
}

// ablationS are the §IV-B.4 points, the unclustered reference first.
var ablationS = []float64{1.0, 0.5, 0.2}

// Ablation is the §IV-B.4 view of the sweep: how clustering trades ILP
// runtime against QoR. It is an error when the sweep lacks one of its
// three points.
func (s *SSweep) Ablation() (*AblationResult, error) {
	at := make([]int, len(ablationS))
	for vi, v := range ablationS {
		if at[vi] = slices.Index(s.Values, v); at[vi] < 0 {
			return nil, fmt.Errorf("exp: the ablation needs s = %.1f in the sweep", v)
		}
	}
	out := &AblationResult{
		Scale:        s.Scale,
		SValues:      slices.Clone(ablationS),
		RuntimeCut:   make([]float64, len(ablationS)),
		DispOverhead: make([]float64, len(ablationS)),
		HPWLOverhead: make([]float64, len(ablationS)),
	}
	// The percentage accumulators merge in spec order so the averages stay
	// deterministic.
	ref := at[0]
	for _, sr := range s.series {
		for vi, j := range at {
			if sr.rap[ref] > 0 {
				out.RuntimeCut[vi] += 100 * (1 - sr.rap[j]/sr.rap[ref])
			}
			if sr.disp[ref] > 0 {
				out.DispOverhead[vi] += 100 * (sr.disp[j]/sr.disp[ref] - 1)
			}
			if sr.hpwl[ref] > 0 {
				out.HPWLOverhead[vi] += 100 * (sr.hpwl[j]/sr.hpwl[ref] - 1)
			}
		}
		out.TestcaseCount++
	}
	for vi := range ablationS {
		out.RuntimeCut[vi] /= float64(out.TestcaseCount)
		out.DispOverhead[vi] /= float64(out.TestcaseCount)
		out.HPWLOverhead[vi] /= float64(out.TestcaseCount)
	}
	return out, nil
}

// Table renders the ablation.
func (r *AblationResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Clustering ablation (§IV-B.4, scale %.2f, %d testcases; vs unclustered ILP)", r.Scale, r.TestcaseCount),
		Headers: []string{"s", "ILP runtime cut (%)", "disp overhead (%)", "HPWL overhead (%)"},
	}
	for i, s := range r.SValues {
		t.Add(metrics.F(s, 2), metrics.F(r.RuntimeCut[i], 1),
			metrics.F(r.DispOverhead[i], 1), metrics.F(r.HPWLOverhead[i], 2))
	}
	return t
}

// ProfileResult is the runtime share study of §IV-B.3: the fraction of
// placement time spent solving the RAP vs legalizing, by testcase size
// class.
type ProfileResult struct {
	Scale float64
	// Size class thresholds scale with the experiment scale (the paper's
	// 3000/5000 minority instances at scale 1.0).
	SmallMax, MediumMax int
	// Per class: testcase count, mean RAP share (%), mean legalization
	// share (%).
	Count      [3]int
	RAPShare   [3]float64
	LegalShare [3]float64
}

// Profile is the §IV-B.3 view of the matrix: Flow (5)'s RAP and
// legalization shares of placement time, by size class.
func (m *Matrix) Profile() *ProfileResult {
	out := &ProfileResult{
		Scale:     m.Scale,
		SmallMax:  int(3000 * m.Scale),
		MediumMax: int(5000 * m.Scale),
	}
	for _, row := range m.Rows {
		f5 := row.Flows[flow.Flow5-1]
		rap, legal := f5.RAPTime.Seconds(), f5.LegalTime.Seconds()
		total := rap + legal
		if total <= 0 {
			continue
		}
		class := 2
		if f5.NumMinority < out.SmallMax {
			class = 0
		} else if f5.NumMinority <= out.MediumMax {
			class = 1
		}
		out.Count[class]++
		out.RAPShare[class] += 100 * rap / total
		out.LegalShare[class] += 100 * legal / total
	}
	for c := 0; c < 3; c++ {
		if out.Count[c] > 0 {
			out.RAPShare[c] /= float64(out.Count[c])
			out.LegalShare[c] /= float64(out.Count[c])
		}
	}
	return out
}

// Table renders the profile.
func (r *ProfileResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Runtime profile (§IV-B.3, scale %.2f; size classes <%d / %d-%d / >%d minority)",
			r.Scale, r.SmallMax, r.SmallMax, r.MediumMax, r.MediumMax),
		Headers: []string{"class", "#cases", "RAP share (%)", "legalization share (%)"},
	}
	names := []string{"small", "medium", "large"}
	for c := 0; c < 3; c++ {
		t.Add(names[c], fmt.Sprint(r.Count[c]), metrics.F(r.RAPShare[c], 2), metrics.F(r.LegalShare[c], 2))
	}
	return t
}

// OverheadResult is §IV-B.6: the cost of the row-constraint relative to the
// unconstrained Flow (1), for the prior work and the proposed flow.
type OverheadResult struct {
	Scale float64
	// Percent overheads vs Flow (1).
	HPWLFlow2, HPWLFlow5   float64
	WLFlow2, WLFlow5       float64
	PowerFlow2, PowerFlow5 float64
}

// Overhead is the §IV-B.6 view of the matrix. Like Table5, it is an
// error on a matrix run without routing.
func (m *Matrix) Overhead() (*OverheadResult, error) {
	if err := m.needRoute("the overhead study"); err != nil {
		return nil, err
	}
	out := &OverheadResult{Scale: m.Scale}
	var n4, n5 float64
	for _, row := range m.Rows {
		f1, f2, f5 := row.Flows[flow.Flow1-1], row.Flows[flow.Flow2-1], row.Flows[flow.Flow5-1]
		if f1.HPWL != 0 {
			out.HPWLFlow2 += 100 * (float64(f2.HPWL)/float64(f1.HPWL) - 1)
			out.HPWLFlow5 += 100 * (float64(f5.HPWL)/float64(f1.HPWL) - 1)
			n4++
		}
		if f1.RoutedWL != 0 && f1.PowerMW != 0 {
			out.WLFlow2 += 100 * (float64(f2.RoutedWL)/float64(f1.RoutedWL) - 1)
			out.WLFlow5 += 100 * (float64(f5.RoutedWL)/float64(f1.RoutedWL) - 1)
			out.PowerFlow2 += 100 * (f2.PowerMW/f1.PowerMW - 1)
			out.PowerFlow5 += 100 * (f5.PowerMW/f1.PowerMW - 1)
			n5++
		}
	}
	if n4 > 0 {
		out.HPWLFlow2 /= n4
		out.HPWLFlow5 /= n4
	}
	if n5 > 0 {
		out.WLFlow2 /= n5
		out.WLFlow5 /= n5
		out.PowerFlow2 /= n5
		out.PowerFlow5 /= n5
	}
	return out, nil
}

// Table renders the overhead study.
func (r *OverheadResult) Table() *metrics.Table {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Row-constraint overhead vs unconstrained Flow (1) (§IV-B.6, scale %.2f)", r.Scale),
		Headers: []string{"metric", "Flow(2) [10] (%)", "Flow(5) ours (%)"},
	}
	t.Add("post-place HPWL", metrics.F(r.HPWLFlow2, 1), metrics.F(r.HPWLFlow5, 1))
	t.Add("routed wirelength", metrics.F(r.WLFlow2, 1), metrics.F(r.WLFlow5, 1))
	t.Add("total power", metrics.F(r.PowerFlow2, 1), metrics.F(r.PowerFlow5, 1))
	return t
}
