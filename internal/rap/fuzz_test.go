package rap_test

import (
	"context"
	"testing"

	"mthplace/internal/core"
	"mthplace/internal/oracle"
	"mthplace/internal/rap"
)

// fuzzReader doles out fuzz input bytes, returning 0 past the end so every
// input decodes to some instance.
type fuzzReader struct {
	data []byte
	pos  int
}

func (b *fuzzReader) next() byte {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return v
}

// modelFromBytes decodes an arbitrary byte string into a small RAP model:
// 1-5 clusters over 2-6 row pairs with slack capacity, so the instance is
// always feasible and the oracle's state space stays tiny. Same layout as
// the oracle fuzz decoder so corpus entries transfer between the two.
func modelFromBytes(data []byte) *core.Model {
	br := &fuzzReader{data: data}
	nC := int(br.next())%5 + 1
	nR := int(br.next())%5 + 2
	nminR := int(br.next())%nR + 1

	m := &core.Model{Clusters: &core.Clusters{}, NR: nR, NminR: nminR}
	var total, maxW int64
	for c := 0; c < nC; c++ {
		w := int64(br.next())%100 + 1
		m.Clusters.Width = append(m.Clusters.Width, w)
		m.Clusters.Members = append(m.Clusters.Members, []int32{int32(c)})
		m.Clusters.CenterX = append(m.Clusters.CenterX, float64(c))
		m.Clusters.CenterY = append(m.Clusters.CenterY, float64(c))
		total += w
		if w > maxW {
			maxW = w
		}
		row := make([]float64, nR)
		for r := range row {
			row[r] = float64(int(br.next()) * 4)
		}
		m.Cost = append(m.Cost, row)
	}
	m.Cap = (total+int64(nminR)-1)/int64(nminR) + maxW
	for r := 0; r < nR; r++ {
		m.PairCenterY = append(m.PairCenterY, int64(r)*1000+500)
	}
	return m
}

// FuzzRAPSolve decodes arbitrary bytes into a small feasible RAP instance
// and checks the structure-aware backend against the brute-force oracle:
// the objective must equal the true optimum, the assignment must pass the
// Eq. 3/4/5 audit, optimality must be proven, and the reported lower bound
// must never exceed the incumbent.
func FuzzRAPSolve(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 2, 50, 10, 20, 30, 40, 7, 99, 1, 2, 3, 4})
	f.Add([]byte{5, 5, 5, 1, 1, 1, 1, 1, 255, 255, 0, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := modelFromBytes(data)

		exact, err := oracle.Solve(m)
		if err != nil {
			t.Fatalf("slack-capacity instance reported infeasible: %v", err)
		}

		got, err := core.Solve(context.Background(), m, core.SolveOptions{
			MaxNodes: 5_000_000,
			Degrade:  core.DegradeStrict,
		})
		if err != nil {
			t.Fatalf("rap backend failed on slack-capacity instance: %v", err)
		}
		if err := oracle.Feasibility(m, got); err != nil {
			t.Fatalf("rap result fails audit: %v", err)
		}
		if !got.Stats.Optimal {
			t.Fatalf("rap did not prove optimality (status %v)", got.Stats.Status)
		}
		if got.Objective != exact.Objective {
			t.Fatalf("rap objective %v, oracle optimum %v", got.Objective, exact.Objective)
		}

		// Drive the raw solver too, so the bound invariant is fuzzed without
		// core's pruning in front of it.
		inst := &rap.Instance{
			NR: m.NR, NminR: m.NminR, Cap: m.Cap, Width: m.Clusters.Width,
			Cand: make([][]rap.Arc, m.Clusters.N()),
		}
		for c := range inst.Cand {
			arcs := make([]rap.Arc, m.NR)
			for r := 0; r < m.NR; r++ {
				arcs[r] = rap.Arc{Row: int32(r), Cost: m.Cost[c][r]}
			}
			inst.Cand[c] = arcs
		}
		res, err := rap.Solve(context.Background(), inst, nil, rap.Options{})
		if err != nil {
			t.Fatalf("raw rap.Solve: %v", err)
		}
		if res.Status != rap.Optimal {
			t.Fatalf("raw solve status %v, want optimal", res.Status)
		}
		if res.Obj != exact.Objective {
			t.Fatalf("raw rap objective %v, oracle optimum %v", res.Obj, exact.Objective)
		}
		if res.Bound > res.Obj+1e-9 {
			t.Fatalf("lower bound %v exceeds objective %v", res.Bound, res.Obj)
		}
	})
}
