package rap_test

import (
	"context"
	"fmt"

	"mthplace/internal/core"
	"mthplace/internal/lp"
	"mthplace/internal/milp"
)

// solveMILPRef is the independent reference leg of the differential suite:
// the paper's ILP in its plain linearised form, solved by the generic
// internal/milp branch and bound over internal/lp. Eq. (5)'s max-based
// row-usage indicator becomes binaries y_r:
//
//	Σ_r x_cr = 1                    ∀c        (Eq. 3)
//	Σ_c w(c)·x_cr ≤ w(r)·y_r        ∀r        (Eq. 4 + linking)
//	Σ_r y_r = N_minR                          (Eq. 5)
//
// Every pair is a candidate of every cluster; there are no cuts, no warm
// start and no degradation ladder, and the search runs to a tight gap with
// an effectively unlimited node budget. Anything short of a proven optimum
// is an error.
func solveMILPRef(ctx context.Context, m *core.Model) (*core.Assignment, error) {
	nC, nR := m.Clusters.N(), m.NR
	prob := lp.NewProblem()
	x := make([][]int, nC)
	for c := range x {
		x[c] = make([]int, nR)
		for r := range x[c] {
			x[c][r] = prob.AddVar(m.Cost[c][r], 0, 1)
		}
	}
	y := make([]int, nR)
	for r := range y {
		y[r] = prob.AddVar(0, 0, 1)
	}
	for c := 0; c < nC; c++ {
		row := prob.AddConstraint(lp.EQ, 1)
		for r := 0; r < nR; r++ {
			prob.AddTerm(row, x[c][r], 1)
		}
	}
	for r := 0; r < nR; r++ {
		row := prob.AddConstraint(lp.LE, 0)
		for c := 0; c < nC; c++ {
			prob.AddTerm(row, x[c][r], float64(m.Clusters.Width[c]))
		}
		prob.AddTerm(row, y[r], -float64(m.Cap))
	}
	card := prob.AddConstraint(lp.EQ, float64(m.NminR))
	for r := 0; r < nR; r++ {
		prob.AddTerm(card, y[r], 1)
	}
	bins := make([]int, prob.NumVars())
	for v := range bins {
		bins[v] = v
	}

	res := milp.Solve(ctx, &milp.Problem{LP: prob, Binary: bins}, nil,
		milp.Options{MaxNodes: 5_000_000, RelGap: 1e-9})
	if res.Status != milp.Optimal {
		return nil, fmt.Errorf("milp reference ended %v (stop %v) after %d nodes", res.Status, res.Stop, res.Nodes)
	}
	out := &core.Assignment{ClusterPair: make([]int, nC)}
	for c := 0; c < nC; c++ {
		for r := 0; r < nR; r++ {
			if res.X[x[c][r]] > 0.5 {
				out.ClusterPair[c] = r
				out.Objective += m.Cost[c][r]
			}
		}
	}
	for r := 0; r < nR; r++ {
		if res.X[y[r]] > 0.5 {
			out.MinorityPairs = append(out.MinorityPairs, r)
		}
	}
	return out, nil
}
