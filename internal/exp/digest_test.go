package exp

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// wantDigests pins every timing-independent output of the experiment
// drivers on the tiny config: an FNV-64a digest per view. A change that
// moves one cell of one table shows up as that view's digest drifting.
var wantDigests = map[string]uint64{
	"table4":   0x5b14ce5ed55d0074,
	"table5":   0x2f0818e0e42e29ef,
	"fig5":     0xc3cc1fa34c468880,
	"profile":  0xe9dd0c8a56c3cbdc,
	"overhead": 0x3fb91660c996ac12,
	"fig4a":    0x1e85b16bf54fee3,
	"fig4b":    0xc594d18ca72ff6a7,
	"ablation": 0x53e49efcf4382821,
}

// digest hashes the %v rendering of vals. Floats print in their shortest
// round-trip form, so equal digests mean bit-equal values.
func digest(vals ...any) uint64 {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v|", v)
	}
	return h.Sum64()
}

func TestExperimentDigests(t *testing.T) {
	ctx := context.Background()
	cfg := tiny(t)
	// Lift the solve budget so no solver decision depends on elapsed time.
	cfg.Flow.Core.Solve.TimeLimit = time.Hour

	got := map[string]uint64{}
	m, err := RunMatrix(ctx, cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	t4 := m.Table4()
	var vals []any
	for _, r := range t4.Rows {
		vals = append(vals, r.Name, r.Disp, r.HPWL, r.Degraded)
	}
	got["table4"] = digest(append(vals, t4.NormDisp, t4.NormHPWL)...)

	t5, err := m.Table5()
	if err != nil {
		t.Fatal(err)
	}
	got["table5"] = digest(t5.Scale, t5.Rows, t5.NormWL, t5.NormPower, t5.NormWNS, t5.NormTNS)

	vals = nil
	for _, p := range m.Fig5().Points {
		vals = append(vals, p.Name, p.NumMinority)
	}
	got["fig5"] = digest(vals...)

	pr := m.Profile()
	got["profile"] = digest(pr.SmallMax, pr.MediumMax, pr.Count)

	ov, err := m.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	got["overhead"] = digest(ov.HPWLFlow2, ov.HPWLFlow5, ov.WLFlow2, ov.WLFlow5, ov.PowerFlow2, ov.PowerFlow5)

	sw, err := RunSSweep(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	f4a := sw.Fig4a()
	got["fig4a"] = digest(f4a.Values, f4a.NormDisp, f4a.NormHPWL)

	f4b, err := Fig4b(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	got["fig4b"] = digest(f4b.Values, f4b.NormDisp, f4b.NormHPWL)

	ab, err := sw.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	got["ablation"] = digest(ab.SValues, ab.TestcaseCount, ab.DispOverhead, ab.HPWLOverhead)

	for name, want := range wantDigests {
		if got[name] != want {
			t.Errorf("%s digest %#x, want %#x", name, got[name], want)
		}
	}
}
