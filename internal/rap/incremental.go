package rap

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// Solver is the incremental re-solve handle: it owns an Instance and keeps
// the last solve's assignment duals and incumbent across perturbations, so a
// re-solve after a small edit (cluster added or removed, one cost row
// changed) warm-starts instead of solving cold. The duals are per-cluster
// state, kept aligned through cluster edits (an added cluster starts at its
// cheapest cost, a removed cluster's dual is dropped), and the incumbent is
// repaired against the edited instance before reuse, so warm starts can only
// cost quality relative to a cold solve, never correctness.
//
// Solver is not safe for concurrent use.
type Solver struct {
	in     *Instance
	lambda []float64
	assign []int32
	solved bool
	// lb is a proven lower bound on the *current* instance's optimum,
	// transferred from the last solve through the perturbations since: a
	// cost edit shifts it by the minimum per-row delta, an added cluster
	// adds its cheapest cost, and edits whose effect cannot be bounded
	// (cluster removal, width decrease, new candidate rows) reset it to
	// −Inf. Feeding it to the search as a root-bound floor lets a re-solve
	// prove an unchanged optimum without expanding any nodes.
	lb float64
}

// coldMu is the cold-start dual for a cluster: its cheapest candidate cost
// (the same initialization the root solve uses without warm duals).
func coldMu(arcs []Arc) float64 {
	m := math.Inf(1)
	for _, a := range arcs {
		if a.Cost < m {
			m = a.Cost
		}
	}
	return m
}

// minCostDelta returns min over newArcs of (newCost − oldCost on the same
// row), the amount a transferred lower bound may safely shift by after a
// cost-row edit. A new row with no old counterpart returns −Inf: solutions
// using it have no image in the old instance, so no bound transfers. Both
// lists are sorted by row (Instance.Validate enforces this).
func minCostDelta(oldArcs, newArcs []Arc) float64 {
	d := math.Inf(1)
	i := 0
	for _, na := range newArcs {
		for i < len(oldArcs) && oldArcs[i].Row < na.Row {
			i++
		}
		if i >= len(oldArcs) || oldArcs[i].Row != na.Row {
			return math.Inf(-1)
		}
		if dd := na.Cost - oldArcs[i].Cost; dd < d {
			d = dd
		}
	}
	if math.IsInf(d, 1) { // no arcs: Validate rejects this, but stay safe
		return math.Inf(-1)
	}
	return d
}

// WarmRootIters is the root subgradient budget of a warm re-solve when
// Options.RootIters is unset: the inherited duals are already near the dual
// optimum, so the root needs far fewer sweeps than a cold solve.
const WarmRootIters = 32

// NewSolver returns an incremental solver owning a deep copy of in, so
// later caller mutations of in do not corrupt the solver's state.
func NewSolver(in *Instance) (*Solver, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cp := &Instance{
		NR:    in.NR,
		NminR: in.NminR,
		Cap:   in.Cap,
		Width: slices.Clone(in.Width),
		Cand:  make([][]Arc, len(in.Cand)),
	}
	for c, cs := range in.Cand {
		cp.Cand[c] = slices.Clone(cs)
	}
	lam := make([]float64, len(cp.Width))
	for c, cs := range cp.Cand {
		lam[c] = coldMu(cs)
	}
	return &Solver{in: cp, lambda: lam, lb: math.Inf(-1)}, nil
}

// Instance returns the solver's current instance. Callers must treat it as
// read-only and perturb it through the Set/Add/Remove methods instead.
func (s *Solver) Instance() *Instance { return s.in }

// Solve runs the search, warm-starting from the previous solve's duals and
// incumbent when one exists. The first call is a cold solve.
func (s *Solver) Solve(ctx context.Context, opt Options) (*Result, error) {
	var warm []int32
	var lam0 []float64
	if s.solved {
		warm = s.assign
		lam0 = s.lambda
		if opt.RootIters <= 0 {
			opt.RootIters = WarmRootIters
		}
	}
	res, err := solve(ctx, s.in, warm, lam0, s.lb, opt)
	if err != nil {
		return nil, err
	}
	if len(res.Lambda) == len(s.lambda) {
		copy(s.lambda, res.Lambda)
	}
	if len(res.Assign) == len(s.in.Width) {
		s.assign = slices.Clone(res.Assign)
		s.solved = true
	} else {
		s.solved = false
	}
	switch {
	case res.Status == Optimal:
		s.lb = res.Obj
	case !math.IsInf(res.Bound, -1):
		s.lb = res.Bound
	default:
		s.lb = math.Inf(-1)
	}
	return res, nil
}

// SetClusterArcs replaces cluster c's candidate list (a "cost row changed"
// perturbation). arcs must be sorted by row ascending with no duplicates.
func (s *Solver) SetClusterArcs(c int, arcs []Arc) error {
	if c < 0 || c >= len(s.in.Cand) {
		return fmt.Errorf("rap: cluster %d out of range 0..%d", c, len(s.in.Cand)-1)
	}
	old := s.in.Cand[c]
	s.in.Cand[c] = slices.Clone(arcs)
	if err := s.in.Validate(); err != nil {
		s.in.Cand[c] = old
		return err
	}
	// Shift the cluster's dual by its min-cost delta: assignment duals track
	// the cluster's cost level, so a uniform-ish cost edit moves the dual
	// optimum by about the same amount. This keeps the inherited vector
	// coherent, where a cold reset of one coordinate would distort the root
	// bound and grow the warm tree past the cold one.
	s.lambda[c] += coldMu(s.in.Cand[c]) - coldMu(old)
	if math.IsNaN(s.lambda[c]) || math.IsInf(s.lambda[c], 0) {
		s.lambda[c] = coldMu(s.in.Cand[c])
	}
	// Bound transfer: every solution of the edited instance assigns c to some
	// row r of the new list; if r was available at the old costs, the
	// solution was feasible before at cost − (new_cr − old_cr) ≥ old lb, so
	// new lb = old lb + min_r Δ_cr. A row absent from the old list breaks the
	// mapping and invalidates the transferred bound.
	s.lb += minCostDelta(old, s.in.Cand[c])
	return nil
}

// SetWidth changes cluster c's width.
func (s *Solver) SetWidth(c int, w int64) error {
	if c < 0 || c >= len(s.in.Width) {
		return fmt.Errorf("rap: cluster %d out of range 0..%d", c, len(s.in.Width)-1)
	}
	if w <= 0 {
		return fmt.Errorf("rap: width %d must be positive", w)
	}
	// A wider cluster only shrinks the feasible set, so the transferred
	// bound stays valid; a narrower one admits new solutions and drops it.
	if w < s.in.Width[c] {
		s.lb = math.Inf(-1)
	}
	s.in.Width[c] = w
	return nil
}

// AddCluster appends a cluster and returns its index. The previous
// incumbent is extended lazily: the new cluster enters the warm start as
// unassigned and is placed by the warm-start repair at the next Solve.
func (s *Solver) AddCluster(w int64, arcs []Arc) (int, error) {
	c := len(s.in.Width)
	s.in.Width = append(s.in.Width, w)
	s.in.Cand = append(s.in.Cand, slices.Clone(arcs))
	if err := s.in.Validate(); err != nil {
		s.in.Width = s.in.Width[:c]
		s.in.Cand = s.in.Cand[:c]
		return -1, err
	}
	s.lambda = append(s.lambda, coldMu(s.in.Cand[c]))
	// Every solution now also pays the new cluster at least its cheapest arc.
	s.lb += coldMu(s.in.Cand[c])
	if s.solved {
		// Unknown row: warmStart's repair pass will place it.
		s.assign = append(s.assign, -1)
	}
	return c, nil
}

// RemoveCluster deletes cluster c. The last cluster is swapped into its
// slot (matching the cheap-removal convention of the core clustering
// arrays), and the warm incumbent is permuted the same way.
func (s *Solver) RemoveCluster(c int) error {
	n := len(s.in.Width)
	if c < 0 || c >= n {
		return fmt.Errorf("rap: cluster %d out of range 0..%d", c, n-1)
	}
	s.in.Width[c] = s.in.Width[n-1]
	s.in.Width = s.in.Width[:n-1]
	s.in.Cand[c] = s.in.Cand[n-1]
	s.in.Cand[n-1] = nil
	s.in.Cand = s.in.Cand[:n-1]
	s.lambda[c] = s.lambda[n-1]
	s.lambda = s.lambda[:n-1]
	// Removal frees capacity in ways the old bound cannot account for.
	s.lb = math.Inf(-1)
	if s.solved {
		s.assign[c] = s.assign[n-1]
		s.assign = s.assign[:n-1]
	}
	return nil
}
