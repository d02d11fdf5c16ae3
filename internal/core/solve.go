package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/netlist"
	"mthplace/internal/rap"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Assignment is a RAP solution on the uniform pair grid.
type Assignment struct {
	// ClusterPair maps cluster index to its assigned pair index.
	ClusterPair []int
	// MinorityPairs is the sorted set of pairs chosen as minority rows.
	MinorityPairs []int
	// Objective is Σ f_cr over the assignment.
	Objective float64
	// Stats describe the solve.
	Stats SolveStats
}

// Ladder rungs, best to worst: the proven ILP optimum, the best incumbent
// an interrupted branch-and-bound had in hand, the greedy heuristic.
const (
	RungILP     = "ilp"
	RungAnytime = "anytime"
	RungGreedy  = "greedy"
)

// SolveStats report how a solution was obtained.
type SolveStats struct {
	Method string // "rap" or "greedy"
	// NumVars counts the binary decisions: candidate arcs plus row opens.
	NumVars int
	Nodes   int
	// Iters counts the subgradient iterations of the Lagrangian bound.
	Iters   int
	Status  rap.Status
	Runtime time.Duration
	// Optimal is true when the search proved optimality.
	Optimal bool
	// Rung names the degradation-ladder rung that produced the answer:
	// RungILP (proven optimum), RungAnytime (best incumbent of an
	// interrupted search), or RungGreedy (heuristic fallback).
	Rung string
	// Degraded is true when a limit or deadline forced the solve below the
	// RungILP it was asked for. A BackendGreedy solve is not degraded —
	// the caller got exactly what it requested.
	Degraded bool
	// DegradeReason says what forced the drop: "node-limit", "time-limit"
	// (the solver's own budgets), "deadline" (the caller's context), or
	// "pruned-infeasible" (candidate pruning cut off every ILP solution).
	DegradeReason string
	// Gap is the relative optimality-gap bound of the answer: 0 when
	// proven optimal, the (incumbent − bound)/|incumbent| bound for an
	// anytime incumbent, and -1 when no bound is known (greedy rung).
	Gap float64
}

// DegradePolicy selects what a RAP solve does when it cannot deliver the
// proven ILP optimum (a budget ran out, the context deadline expired, or
// candidate pruning made the ILP infeasible).
type DegradePolicy int8

const (
	// DegradeAnytime (the default) walks the ladder: proven ILP optimum →
	// the interrupted search's best incumbent (with its gap bound) → the
	// greedy heuristic. The solve then always returns the best feasible
	// answer it found, with Stats recording the rung, the reason and the
	// gap; only cancellation and genuine infeasibility surface as errors.
	DegradeAnytime DegradePolicy = iota
	// DegradeStrict fails fast: anything short of the proven optimum is an
	// error (ErrTimeout for an expired deadline, ErrTransient for an
	// exhausted solver budget or a pruning artifact). The oracle and
	// differential tests run Strict so a silently degraded solve can never
	// masquerade as the exact answer.
	DegradeStrict
)

// String implements fmt.Stringer.
func (p DegradePolicy) String() string {
	if p == DegradeStrict {
		return "strict"
	}
	return "anytime"
}

// Solver backends selectable through SolveOptions.Backend, behind the same
// Solve entry point.
const (
	// BackendRAP (the default) runs the structure-aware internal/rap
	// exact solver: sparse per-cluster candidate lists, Lagrangian bounds,
	// and branch and bound on rows and cluster→row arcs.
	BackendRAP = "rap"
	// BackendGreedy runs only the greedy heuristic (the ablation rung).
	BackendGreedy = "greedy"
)

// ValidBackend reports whether name is a usable SolveOptions.Backend
// ("" selects BackendRAP). Every CLI, the job server and Solve itself
// validate backend names with it.
func ValidBackend(name string) error {
	switch name {
	case "", BackendRAP, BackendGreedy:
		return nil
	}
	return fmt.Errorf("unknown solver backend %q (want %s or %s)", name, BackendRAP, BackendGreedy)
}

// SolveOptions tune the RAP solver.
type SolveOptions struct {
	// Backend selects the solver behind Solve: BackendRAP (default when
	// empty) or BackendGreedy.
	Backend string
	// CandidateRows prunes each cluster's x_cr variables to its K cheapest
	// pairs (0 = keep all N_R). The union always keeps enough capacity;
	// pruning is a runtime/optimality trade documented in DESIGN.md.
	CandidateRows int
	// MaxNodes bounds the branch-and-bound nodes (0 = rap's default 20000).
	MaxNodes int
	// RelGap stops the search once (incumbent − bound)/max(1,|incumbent|)
	// is below it (0 = 1e-6, effectively exact on integer costs).
	RelGap float64
	// TimeLimit bounds the whole solve's wall clock; the search always
	// gets at least 1 s of it (0 = none).
	TimeLimit time.Duration
	// Degrade selects the ladder policy (default DegradeAnytime).
	Degrade DegradePolicy
}

// Solve solves the RAP model with the backend selected by opt.Backend: the
// greedy heuristic seeds the structure-aware internal/rap branch and bound
// (Lagrangian-bounded, on the candidate-pruned sparse arc instance), or is
// the answer itself for BackendGreedy. An unknown backend name is an error.
//
// Cancellation is honoured between the greedy warm start and each
// branch-and-bound node: a canceled ctx returns errs.ErrCanceled. Deadline
// expiry depends on the degradation policy (opt.Degrade): the default
// DegradeAnytime returns the best feasible answer in hand — the interrupted
// search's incumbent with its gap bound, or the greedy warm start — with
// Stats recording the rung; DegradeStrict surfaces errs.ErrTimeout instead
// (and ErrTransient when a solver budget ran out), so nothing short of the
// proven optimum is ever returned silently.
func Solve(ctx context.Context, m *Model, opt SolveOptions) (*Assignment, error) {
	if err := ValidBackend(opt.Backend); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	greedy, err := SolveGreedy(m)
	if err != nil {
		return nil, err
	}
	if err := errs.FromContext(ctx); err != nil {
		if opt.Degrade == DegradeAnytime && errors.Is(err, errs.ErrTimeout) {
			return degradeToGreedy(greedy, start, "deadline")
		}
		return nil, fmt.Errorf("core: RAP solve: %w", err)
	}
	nC := m.Clusters.N()
	if opt.Backend == BackendGreedy || nC == 0 {
		greedy.Stats.Runtime = time.Since(start)
		return greedy, nil
	}

	cand := pruneCandidates(m, greedy, opt.CandidateRows)
	inst := &rap.Instance{
		NR:    m.NR,
		NminR: m.NminR,
		Cap:   m.Cap,
		Width: m.Clusters.Width,
		Cand:  make([][]rap.Arc, nC),
	}
	warm := make([]int32, nC)
	for c := 0; c < nC; c++ {
		arcs := make([]rap.Arc, len(cand[c]))
		for i, r := range cand[c] {
			arcs[i] = rap.Arc{Row: int32(r), Cost: m.Cost[c][r]}
		}
		inst.Cand[c] = arcs
		warm[c] = int32(greedy.ClusterPair[c])
	}
	ropt := rap.Options{MaxNodes: opt.MaxNodes, RelGap: opt.RelGap}
	if opt.TimeLimit > 0 {
		ropt.TimeLimit = opt.TimeLimit - time.Since(start)
		if ropt.TimeLimit < time.Second {
			ropt.TimeLimit = time.Second
		}
	}
	res, err := rap.Solve(ctx, inst, warm, ropt)
	if err != nil {
		return nil, fmt.Errorf("core: RAP solve: %w", err)
	}
	ctxErr := errs.FromContext(ctx)
	if ctxErr != nil && (opt.Degrade != DegradeAnytime || !errors.Is(ctxErr, errs.ErrTimeout)) {
		// The caller gave up (cancel), or a Strict solve refuses to hand
		// back an unproven answer after its deadline expired.
		return nil, fmt.Errorf("core: RAP branch and bound: %w", ctxErr)
	}
	reason := degradeReason(res.Status, res.Stop, ctxErr)
	if res.Status == rap.Infeasible || res.Status == rap.Limit {
		// No usable incumbent came out of the search (pruning can in
		// principle make the instance infeasible; the greedy solution is
		// always feasible): the ladder's last rung.
		if opt.Degrade == DegradeStrict {
			return nil, errs.Transient("core: RAP search ended %v (%s) without a usable incumbent", res.Status, reason)
		}
		greedy.Stats.Status = res.Status
		return degradeToGreedy(greedy, start, reason)
	}
	if opt.Degrade == DegradeStrict && res.Status != rap.Optimal {
		return nil, errs.Transient("core: RAP search stopped (%s) before proving optimality", reason)
	}

	out := &Assignment{ClusterPair: make([]int, nC)}
	chosen := map[int]bool{}
	for c := 0; c < nC; c++ {
		out.ClusterPair[c] = int(res.Assign[c])
		chosen[out.ClusterPair[c]] = true
	}
	out.MinorityPairs = slices.Sorted(maps.Keys(chosen))
	out.Objective = objectiveOf(m, out.ClusterPair)
	out.Stats = SolveStats{
		Method:  "rap",
		NumVars: inst.NumArcs() + m.NR,
		Nodes:   res.Nodes,
		Iters:   res.Iters,
		Status:  res.Status,
		Runtime: time.Since(start),
		Optimal: res.Status == rap.Optimal,
		Rung:    RungILP,
	}
	if res.Status != rap.Optimal {
		// Anytime incumbent: the search was cut short but had a feasible
		// solution in hand; return it with its optimality-gap bound instead
		// of throwing it away.
		out.Stats.Rung = RungAnytime
		out.Stats.Degraded = true
		out.Stats.DegradeReason = reason
		out.Stats.Gap = gapOf(res.Gap())
	}
	if len(out.MinorityPairs) > m.NminR {
		return nil, fmt.Errorf("core: RAP produced %d minority pairs, budget %d", len(out.MinorityPairs), m.NminR)
	}
	padMinorityPairs(m, out)
	return out, nil
}

// degradeToGreedy annotates the greedy warm start as the ladder's last
// rung and returns it: the answer is feasible but carries no optimality
// bound (Gap = -1).
func degradeToGreedy(greedy *Assignment, start time.Time, reason string) (*Assignment, error) {
	greedy.Stats.Runtime = time.Since(start)
	greedy.Stats.Rung = RungGreedy
	greedy.Stats.Degraded = true
	greedy.Stats.DegradeReason = reason
	greedy.Stats.Gap = -1
	return greedy, nil
}

// pruneCandidates keeps each cluster's k cheapest pairs plus its
// greedy-chosen pair (so the warm start stays representable), each list
// sorted ascending by pair index. k <= 0 or k >= N_R keeps every pair.
// One index buffer is resorted
// per cluster, so the hot path allocates only the kept lists (see
// BenchmarkCandidatePruning).
func pruneCandidates(m *Model, greedy *Assignment, k int) [][]int {
	nC, nR := m.Clusters.N(), m.NR
	cand := make([][]int, nC)
	if k <= 0 || k >= nR {
		all := indexSeq(nR) // shared: candidate lists are read-only
		for c := range cand {
			cand[c] = all
		}
		return cand
	}
	idx := make([]int, nR)
	for c := 0; c < nC; c++ {
		for i := range idx {
			idx[i] = i
		}
		costs := m.Cost[c]
		slices.SortFunc(idx, func(a, b int) int {
			if costs[a] != costs[b] {
				if costs[a] < costs[b] {
					return -1
				}
				return 1
			}
			return a - b
		})
		keep := make([]int, k, k+1)
		copy(keep, idx[:k])
		if !slices.Contains(keep, greedy.ClusterPair[c]) {
			keep = append(keep, greedy.ClusterPair[c])
		}
		slices.Sort(keep)
		cand[c] = keep
	}
	return cand
}

// degradeReason names what stopped the search short of a proof.
func degradeReason(status rap.Status, stop rap.StopReason, ctxErr error) string {
	if status == rap.Infeasible {
		return "pruned-infeasible"
	}
	if ctxErr != nil {
		return "deadline"
	}
	switch stop {
	case rap.StopNodeLimit:
		return "node-limit"
	case rap.StopTimeLimit:
		return "time-limit"
	case rap.StopContext:
		return "deadline"
	default:
		return ""
	}
}

// gapOf clamps a solver gap bound into the SolveStats convention: a finite
// non-negative ratio, or -1 when the search produced no usable bound.
func gapOf(g float64) float64 {
	if math.IsInf(g, 0) || math.IsNaN(g) {
		return -1
	}
	if g < 0 {
		return 0
	}
	return g
}

// padMinorityPairs tops the chosen set up to exactly N_minR pairs (empty
// minority rows are legal and keep the fairness rule N_minR = Flow (2)'s).
func padMinorityPairs(m *Model, a *Assignment) {
	have := map[int]bool{}
	for _, r := range a.MinorityPairs {
		have[r] = true
	}
	for r := 0; len(a.MinorityPairs) < m.NminR && r < m.NR; r++ {
		if !have[r] {
			a.MinorityPairs = append(a.MinorityPairs, r)
			have[r] = true
		}
	}
	sort.Ints(a.MinorityPairs)
}

// SolveGreedy builds a feasible RAP solution: choose N_minR pairs at the
// weighted quantiles of the cluster y-distribution, assign clusters
// cheapest-first under capacity, then improve with relocation passes. It is
// both the rap warm start and the ablation/fallback rung.
func SolveGreedy(m *Model) (*Assignment, error) {
	start := time.Now()
	nC, nR := m.Clusters.N(), m.NR
	out := &Assignment{ClusterPair: make([]int, nC)}
	if nC == 0 {
		for r := 0; r < m.NminR; r++ {
			out.MinorityPairs = append(out.MinorityPairs, r)
		}
		out.Stats = SolveStats{Method: "greedy", Runtime: time.Since(start), Rung: RungGreedy, Gap: 0}
		return out, nil
	}

	// Quantile seeding over cluster centers weighted by width.
	type cw struct {
		y float64
		w int64
	}
	cws := make([]cw, nC)
	var totalW int64
	for c := 0; c < nC; c++ {
		cws[c] = cw{m.Clusters.CenterY[c], m.Clusters.Width[c]}
		totalW += m.Clusters.Width[c]
	}
	sort.Slice(cws, func(a, b int) bool { return cws[a].y < cws[b].y })
	chosen := make([]bool, nR)
	var pairs []int
	var acc int64
	k := 0
	for _, e := range cws {
		acc += e.w
		for k < m.NminR && acc*int64(m.NminR) >= totalW*int64(k)+totalW/2 {
			r := nearestFreePair(m, e.y, chosen)
			if r >= 0 {
				chosen[r] = true
				pairs = append(pairs, r)
			}
			k++
		}
	}
	for len(pairs) < m.NminR {
		for r := 0; r < nR; r++ {
			if !chosen[r] {
				chosen[r] = true
				pairs = append(pairs, r)
				break
			}
		}
	}
	sort.Ints(pairs)

	// Cheapest-feasible assignment, widest clusters first.
	order := indexSeq(nC)
	sort.Slice(order, func(a, b int) bool {
		if m.Clusters.Width[order[a]] != m.Clusters.Width[order[b]] {
			return m.Clusters.Width[order[a]] > m.Clusters.Width[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, nR)
	for _, c := range order {
		best, bestCost := -1, math.Inf(1)
		for _, r := range pairs {
			if load[r]+m.Clusters.Width[c] > m.Cap {
				continue
			}
			if m.Cost[c][r] < bestCost {
				best, bestCost = r, m.Cost[c][r]
			}
		}
		if best < 0 {
			return nil, errs.Infeasible("core: greedy could not host cluster %d (width %d)", c, m.Clusters.Width[c])
		}
		out.ClusterPair[c] = best
		load[best] += m.Clusters.Width[c]
	}

	// Relocation improvement passes.
	for pass := 0; pass < 4; pass++ {
		improved := false
		for c := 0; c < nC; c++ {
			cur := out.ClusterPair[c]
			for _, r := range pairs {
				if r == cur || load[r]+m.Clusters.Width[c] > m.Cap {
					continue
				}
				if m.Cost[c][r]+1e-9 < m.Cost[c][cur] {
					load[cur] -= m.Clusters.Width[c]
					load[r] += m.Clusters.Width[c]
					out.ClusterPair[c] = r
					cur = r
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	out.MinorityPairs = pairs
	out.Objective = objectiveOf(m, out.ClusterPair)
	out.Stats = SolveStats{Method: "greedy", Runtime: time.Since(start), Rung: RungGreedy, Gap: -1}
	return out, nil
}

func nearestFreePair(m *Model, y float64, chosen []bool) int {
	best, bestD := -1, math.Inf(1)
	for r := 0; r < m.NR; r++ {
		if chosen[r] {
			continue
		}
		d := math.Abs(float64(m.PairCenterY[r]) - y)
		if d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

func objectiveOf(m *Model, clusterPair []int) float64 {
	var obj float64
	for c, r := range clusterPair {
		obj += m.Cost[c][r]
	}
	return obj
}

// indexSeq returns the slice [0, 1, ..., n-1].
func indexSeq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RowAssignment is the complete outcome of the proposed row assignment
// (BuildClusters, BuildModel, Solve, then Finalize): the restacked die and
// the minority-cell seeding derived from the cluster assignment.
type RowAssignment struct {
	// Heights is the per-pair track-height vector (uniform-grid order).
	Heights []tech.TrackHeight
	// Stack is the restacked die.
	Stack *rowgrid.MixedStack
	// CellPair maps each minority instance to its assigned pair index.
	CellPair map[int32]int
	// SeedY maps each minority instance to the bottom y of its pair in the
	// restacked die (input to the fence-aware legalizer).
	SeedY map[int32]int64
	// Assignment is the underlying RAP solution.
	Assignment *Assignment
	// Clusters used by the solve.
	Clusters *Clusters
}

// Options bundle the full row-assignment configuration (§III).
type Options struct {
	// S is the clustering resolution (paper: 0.2).
	S float64
	// Cost holds α and the capacity derating.
	Cost CostParams
	// Solve tunes the RAP solve.
	Solve SolveOptions
	// KMeansIters bounds the Lloyd iterations (default 30).
	KMeansIters int
}

// DefaultOptions mirror the paper's final parameter choices (s = 0.2,
// α = 0.75). The solve budgets differ from CPLEX's pure optimality run: the
// branch and bound stops at a 0.2% optimality gap, 20000 nodes or 12 s
// (documented substitution in DESIGN.md — a 0.2% objective slack is far
// below the flow-to-flow differences the experiments measure).
func DefaultOptions() Options {
	return Options{
		S:    0.2,
		Cost: DefaultCostParams(),
		Solve: SolveOptions{
			CandidateRows: 12,
			MaxNodes:      20000,
			RelGap:        0.002,
			TimeLimit:     12 * time.Second,
		},
	}
}

// Finalize converts a RAP solution into the restacked die and cell seeding.
func Finalize(d *netlist.Design, g rowgrid.PairGrid, m *Model, cl *Clusters, sol *Assignment) (*RowAssignment, error) {
	hs := m.Heights(sol.MinorityPairs)
	ms, err := rowgrid.Stack(d.Die, hs, d.Tech)
	if err != nil {
		return nil, err
	}
	ra := &RowAssignment{
		Heights:    hs,
		Stack:      ms,
		CellPair:   make(map[int32]int),
		SeedY:      make(map[int32]int64),
		Assignment: sol,
		Clusters:   cl,
	}
	for c, r := range sol.ClusterPair {
		for _, i := range cl.Members[c] {
			ra.CellPair[i] = r
			ra.SeedY[i] = ms.Y[r]
		}
	}
	return ra, nil
}
