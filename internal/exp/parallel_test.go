package exp

import (
	"context"
	"testing"
	"time"
)

// TestTable4ParallelEquivalence asserts the tentpole guarantee at the
// experiment-matrix layer: the deterministic fields of Table IV (metrics
// and their normalisations) are identical at jobs=1 and jobs=8. Stage
// wall-clock times are inherently nondeterministic and excluded; the solver
// time budgets are lifted so no solver decision can depend on elapsed time.
// The bound now travels through Config.Jobs alone — nothing global changes,
// which is exactly what lets the job server run differently-bounded jobs
// side by side.
func TestTable4ParallelEquivalence(t *testing.T) {
	cfg := tiny(t)
	// Remove every wall-clock-dependent solver decision.
	cfg.Flow.Core.Solve.TimeLimit = time.Hour

	run := func(jobs int) *Table4Result {
		t.Helper()
		c := cfg
		c.Flow.Jobs = jobs
		res, err := Table4(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(8)

	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].Name != b.Rows[i].Name {
			t.Fatalf("row %d order differs: %s vs %s (ordered collector broken)", i, a.Rows[i].Name, b.Rows[i].Name)
		}
		if a.Rows[i].Disp != b.Rows[i].Disp {
			t.Fatalf("%s: Disp %v vs %v", a.Rows[i].Name, a.Rows[i].Disp, b.Rows[i].Disp)
		}
		if a.Rows[i].HPWL != b.Rows[i].HPWL {
			t.Fatalf("%s: HPWL %v vs %v", a.Rows[i].Name, a.Rows[i].HPWL, b.Rows[i].HPWL)
		}
	}
	if a.NormDisp != b.NormDisp {
		t.Fatalf("NormDisp %v vs %v", a.NormDisp, b.NormDisp)
	}
	if a.NormHPWL != b.NormHPWL {
		t.Fatalf("NormHPWL %v vs %v", a.NormHPWL, b.NormHPWL)
	}
}

// TestTable2ParallelEquivalence covers the generator fan-out: same rows,
// same order, at both worker counts.
func TestTable2ParallelEquivalence(t *testing.T) {
	cfg := tiny(t)
	run := func(jobs int) *Table2Result {
		t.Helper()
		c := cfg
		c.Flow.Jobs = jobs
		res, err := Table2(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(8)
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
