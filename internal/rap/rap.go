// Package rap is the structure-aware solver for the paper's row assignment
// problem (RAP, Eqs. (3)–(5)) and the only exact backend behind core.Solve.
// Where a generic mixed-binary LP solver would treat the instance as a dense
// cost matrix, this package exploits the assignment-plus-one-cardinality
// structure directly:
//
//   - Sparse costs. An Instance stores per-cluster candidate arc lists, so
//     candidate pruning shrinks the data the solver touches, not just the
//     iteration space of a dense matrix.
//   - Lagrangian bounds. Dualizing the assignment rows (Σ_r x_cr = 1) with
//     free multipliers μ_c keeps the hard coupling in the subproblem: each
//     row solves an LP knapsack over its negative reduced costs (Eq. 4, with
//     x ≤ y implicit), and the Eq. 5 cardinality picks the N_minR most
//     negative rows exactly. This is the classic capacitated-p-median
//     relaxation — it stays tight when the row budget, not capacity, binds.
//     Subgradient updates tighten the bound; every μ yields a valid lower
//     bound, so the search can stop anytime.
//   - Structured branch and bound. Cardinality pressure branches on whole
//     rows (open/close), capacity violations on cluster→row arcs;
//     constraint propagation prunes arcs that can no longer be feasible,
//     Lagrangian reduced-cost fixing closes rows no improving solution can
//     use, and a repair heuristic turns relaxed solutions into incumbents.
//     Status/StopReason (status.go) report anytime outcomes to the core
//     degradation ladder.
//
// The package is deliberately standalone — it does not import internal/core.
// core builds an Instance from its Model (after its candidate pruning) and
// maps the Result back onto its Assignment/ladder types.
package rap

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"mthplace/internal/obs"
)

// Arc is one candidate cluster→row assignment with its Eq. 2 cost.
type Arc struct {
	Row  int32
	Cost float64
}

// Instance is the sparse RAP: per-cluster candidate arc lists instead of a
// dense N_C × N_R cost matrix.
type Instance struct {
	// NR is the number of row pairs.
	NR int
	// NminR is the minority pair budget (Eq. 5): at most NminR distinct
	// rows may host clusters (empty minority rows are legal).
	NminR int
	// Cap is the per-pair width capacity (Eq. 4).
	Cap int64
	// Width is the per-cluster total cell width.
	Width []int64
	// Cand[c] lists cluster c's candidate arcs, sorted by Row ascending
	// with no duplicate rows.
	Cand [][]Arc
}

// NumClusters returns the cluster count.
func (in *Instance) NumClusters() int { return len(in.Width) }

// NumArcs returns the total candidate arc count (the sparse problem size).
func (in *Instance) NumArcs() int {
	n := 0
	for _, cs := range in.Cand {
		n += len(cs)
	}
	return n
}

// Validate reports a malformed instance: mismatched slice lengths, an
// out-of-range NminR, non-positive widths, or an unsorted/out-of-range
// candidate list. A validated instance may still be infeasible — that is a
// solve outcome (Status Infeasible), not a shape error.
func (in *Instance) Validate() error {
	if in.NR <= 0 {
		return fmt.Errorf("rap: NR %d must be positive", in.NR)
	}
	if in.NminR <= 0 || in.NminR > in.NR {
		return fmt.Errorf("rap: NminR %d out of range 1..%d", in.NminR, in.NR)
	}
	if in.Cap <= 0 {
		return fmt.Errorf("rap: capacity %d must be positive", in.Cap)
	}
	if len(in.Cand) != len(in.Width) {
		return fmt.Errorf("rap: %d candidate lists for %d clusters", len(in.Cand), len(in.Width))
	}
	for c, cs := range in.Cand {
		if in.Width[c] <= 0 {
			return fmt.Errorf("rap: cluster %d width %d must be positive", c, in.Width[c])
		}
		if len(cs) == 0 {
			return fmt.Errorf("rap: cluster %d has no candidate arcs", c)
		}
		prev := int32(-1)
		for _, a := range cs {
			if a.Row < 0 || int(a.Row) >= in.NR {
				return fmt.Errorf("rap: cluster %d arc row %d out of range 0..%d", c, a.Row, in.NR-1)
			}
			if a.Row <= prev {
				return fmt.Errorf("rap: cluster %d candidate rows not strictly ascending", c)
			}
			prev = a.Row
		}
	}
	return nil
}

// Options tune the solve.
type Options struct {
	// MaxNodes bounds the branch-and-bound nodes (0 = 20000). A node costs
	// a few subgradient sweeps over the arcs, not an LP solve.
	MaxNodes int
	// TimeLimit bounds wall-clock time (0 = none).
	TimeLimit time.Duration
	// RelGap stops when (incumbent − bound)/max(1,|incumbent|) is below it
	// (0 = 1e-6).
	RelGap float64
	// RootIters bounds the root subgradient iterations (0 = 1200).
	RootIters int
	// NodeIters bounds the per-node subgradient iterations (0 = 24).
	NodeIters int
}

func (o Options) withDefaults() Options {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 20000
	}
	if o.RelGap <= 0 {
		o.RelGap = 1e-6
	}
	if o.RootIters <= 0 {
		o.RootIters = 1200
	}
	if o.NodeIters <= 0 {
		o.NodeIters = 24
	}
	return o
}

// Result of a solve. Status and Stop carry the anytime outcome the caller's
// degradation ladder maps onto its rungs.
type Result struct {
	Status Status
	// Stop explains an early exit; StopNone when the search ran to proof.
	Stop StopReason
	// Assign is the incumbent cluster→row assignment (nil without one).
	Assign []int32
	// Obj is the incumbent objective.
	Obj float64
	// Bound is the best proven lower bound on the optimum (-Inf when the
	// search stopped before producing one).
	Bound float64
	// Nodes is the number of branch-and-bound nodes expanded.
	Nodes int
	// Iters is the total subgradient iterations across all nodes.
	Iters int
}

// Gap returns the relative optimality gap of the result: 0 at proven
// optimality, +Inf when there is no incumbent or no finite bound.
func (r *Result) Gap() float64 {
	if len(r.Assign) == 0 || math.IsInf(r.Bound, -1) {
		return math.Inf(1)
	}
	g := (r.Obj - r.Bound) / math.Max(1, math.Abs(r.Obj))
	if g < 0 {
		return 0
	}
	return g
}

// bitset is a fixed-capacity bit vector over the flattened arc array.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n%64 != 0 {
		b[len(b)-1] = (1 << (n % 64)) - 1
	}
}
func (b bitset) clone() bitset { return append(bitset(nil), b...) }

// Row branching states. Cardinality (Eq. 5) violations branch on whole
// rows — open (y_r forced 1) versus closed (y_r forced 0, every arc to the
// row dies) — which shrinks the row-subset space exponentially faster than
// forbidding one arc at a time.
const (
	rowFree   int8 = iota // undecided
	rowOpen               // forced into the minority set
	rowClosed             // excluded from the minority set
)

// node is one open branch-and-bound subproblem: the alive arc set, the row
// open/close decisions, and the parent's duals as warm start.
type node struct {
	bound float64
	alive bitset
	rows  []int8
	lam   []float64
	depth int
	seq   int
}

type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth // plunge toward fully fixed nodes
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) push(n *node) { *h = append(*h, n); h.up(len(*h) - 1) }
func (h *nodeHeap) pop() *node {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = nil
	*h = old[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}
func (h nodeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h.Swap(i, p)
		i = p
	}
}
func (h nodeHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.Less(l, best) {
			best = l
		}
		if r < n && h.Less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.Swap(i, best)
		i = best
	}
}

// search carries the flattened instance plus all per-node scratch, so the
// hot loops allocate nothing.
type search struct {
	in       *Instance
	nC, nR   int
	nA       int
	start    []int32 // cluster -> first flat arc index; len nC+1
	arcRow   []int32
	arcCost  []float64
	arcClus  []int32 // flat arc -> cluster
	rowStart []int32 // row -> first index into rowArcs; len nR+1
	rowArcs  []int32 // flat arc ids grouped by row (row-major view)

	opt    Options
	trivUB float64 // Σ per-cluster max cost: step-size fallback before an incumbent exists

	// Incumbent.
	inc    []int32
	incObj float64
	hasInc bool

	// Per-node analysis state (valid after propagate/eval on that node).
	rows       []int8  // the current node's row states (aliases node.rows)
	nAlive     []int32 // alive arcs per cluster
	singleton  []int32 // the one alive arc of a singleton cluster, else -1
	openRow    []bool  // rows forced open: branched rowOpen or hosting a singleton
	forcedLoad []int64
	nOpenRows  int

	// eval scratch.
	pick     []int32   // integral tentative pick: cluster -> flat arc
	bestMu   []float64 // multipliers of the best bound iterate (len nC)
	vRow     []float64 // per-row LP-knapsack value (≤ 0) at the last eval
	frac     []float64 // per-cluster assignment fraction over selected rows
	items    []int32   // knapsack item scratch
	load     []int64
	yOpen    []bool
	rowOrder []int32
	g        []float64 // subgradient over clusters (len nC)
	closeRow []bool    // fixRows scratch: rows proven unusable this pass

	// repair scratch.
	byWidth   []int32
	repOpen   []bool
	repLoad   []int64
	repAssign []int32

	nodes, iters int

	// Observability (read-only; identical search with or without sinks).
	sink   func(obs.Event)
	tracer *obs.Tracer
	span   *obs.Span // the rap.bnb span; incumbent instants parent here
	startT time.Time
}

func newSearch(in *Instance, opt Options) *search {
	nC, nR := in.NumClusters(), in.NR
	s := &search{in: in, nC: nC, nR: nR, opt: opt, incObj: math.Inf(1)}
	s.start = make([]int32, nC+1)
	for c, cs := range in.Cand {
		s.start[c+1] = s.start[c] + int32(len(cs))
	}
	s.nA = int(s.start[nC])
	s.arcRow = make([]int32, s.nA)
	s.arcCost = make([]float64, s.nA)
	s.arcClus = make([]int32, s.nA)
	for c, cs := range in.Cand {
		base := s.start[c]
		maxC := math.Inf(-1)
		for i, a := range cs {
			s.arcRow[base+int32(i)] = a.Row
			s.arcCost[base+int32(i)] = a.Cost
			s.arcClus[base+int32(i)] = int32(c)
			if a.Cost > maxC {
				maxC = a.Cost
			}
		}
		s.trivUB += maxC
	}
	// Row-major view of the same arcs, for the per-row knapsacks. Counting
	// sort keeps arc ids ascending within each row (determinism).
	s.rowStart = make([]int32, nR+1)
	for a := 0; a < s.nA; a++ {
		s.rowStart[s.arcRow[a]+1]++
	}
	for r := 0; r < nR; r++ {
		s.rowStart[r+1] += s.rowStart[r]
	}
	s.rowArcs = make([]int32, s.nA)
	fill := append([]int32(nil), s.rowStart[:nR]...)
	for a := int32(0); a < int32(s.nA); a++ {
		r := s.arcRow[a]
		s.rowArcs[fill[r]] = a
		fill[r]++
	}
	s.nAlive = make([]int32, nC)
	s.singleton = make([]int32, nC)
	s.openRow = make([]bool, nR)
	s.forcedLoad = make([]int64, nR)
	s.pick = make([]int32, nC)
	s.bestMu = make([]float64, nC)
	s.vRow = make([]float64, nR)
	s.frac = make([]float64, nC)
	s.items = make([]int32, 0, s.nA)
	s.closeRow = make([]bool, nR)
	s.load = make([]int64, nR)
	s.yOpen = make([]bool, nR)
	s.rowOrder = make([]int32, nR)
	s.g = make([]float64, nC)
	s.inc = make([]int32, nC)
	s.byWidth = make([]int32, nC)
	for c := range s.byWidth {
		s.byWidth[c] = int32(c)
	}
	slices.SortFunc(s.byWidth, func(a, b int32) int {
		if in.Width[a] != in.Width[b] {
			if in.Width[a] > in.Width[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	s.repOpen = make([]bool, nR)
	s.repLoad = make([]int64, nR)
	s.repAssign = make([]int32, nC)
	return s
}

func (s *search) gapAbs() float64 {
	return s.opt.RelGap * math.Max(1, math.Abs(s.incObj))
}

// offerIncumbent installs assign (cluster→row) if it improves the incumbent.
func (s *search) offerIncumbent(assign []int32, obj float64) {
	if s.hasInc && obj >= s.incObj {
		return
	}
	copy(s.inc, assign)
	s.incObj = obj
	s.hasInc = true
	if s.sink != nil || s.tracer != nil {
		elapsed := float64(time.Since(s.startT).Microseconds()) / 1000
		if s.sink != nil {
			s.sink(obs.Event{Source: "rap", Kind: "incumbent",
				Objective: obj, Gap: -1, Nodes: s.nodes, ElapsedMS: elapsed})
		}
		s.span.Instant("rap.incumbent", map[string]any{
			"objective": obj, "nodes": s.nodes,
		})
	}
}

// propagate runs constraint propagation on the node (arc set + row states,
// via s.rows) to a fixpoint: arcs to closed rows die; singleton clusters
// force their row open and commit their width; arcs that no longer fit next
// to the committed width die; and once the open rows exhaust the N_minR
// budget, every arc to a non-open row dies. Returns false when the node is
// proven infeasible. On true, nAlive/singleton/openRow/forcedLoad/nOpenRows
// describe the propagated node.
func (s *search) propagate(alive bitset) bool {
	nonClosed := 0
	for r := 0; r < s.nR; r++ {
		if s.rows[r] != rowClosed {
			nonClosed++
		}
	}
	if nonClosed < s.in.NminR {
		return false // Eq. 5 needs exactly NminR open rows; too few remain
	}
	for {
		changed := false
		for r := 0; r < s.nR; r++ {
			s.openRow[r] = s.rows[r] == rowOpen
			s.forcedLoad[r] = 0
		}
		for c := 0; c < s.nC; c++ {
			n := int32(0)
			last := int32(-1)
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if !alive.get(a) {
					continue
				}
				if s.rows[s.arcRow[a]] == rowClosed {
					alive.clear(a)
					changed = true
					continue
				}
				n++
				last = a
			}
			if n == 0 {
				return false
			}
			s.nAlive[c] = n
			if n == 1 {
				s.singleton[c] = last
				s.openRow[s.arcRow[last]] = true
				s.forcedLoad[s.arcRow[last]] += s.in.Width[c]
			} else {
				s.singleton[c] = -1
			}
		}
		s.nOpenRows = 0
		for r := 0; r < s.nR; r++ {
			if s.forcedLoad[r] > s.in.Cap {
				return false
			}
			if s.openRow[r] {
				s.nOpenRows++
			}
		}
		if s.nOpenRows > s.in.NminR {
			return false
		}
		budgetFull := s.nOpenRows == s.in.NminR
		for c := 0; c < s.nC; c++ {
			if s.singleton[c] >= 0 {
				continue
			}
			w := s.in.Width[c]
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if !alive.get(a) {
					continue
				}
				r := s.arcRow[a]
				if s.forcedLoad[r]+w > s.in.Cap || (budgetFull && !s.openRow[r]) {
					alive.clear(a)
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
}

// knap solves row r's LP knapsack at multipliers mu: minimize Σ red_a·x_a
// over the alive arcs into r with Σ w·x ≤ Cap and x ∈ [0,1], where
// red_a = cost_a − μ_cluster(a). Only negative reduced costs can help, and
// the LP optimum fills by most negative density first (fractional last
// item). The LP value lower-bounds the integer knapsack, which keeps the
// Lagrangian bound valid. When frac is non-nil the chosen fractions are
// accumulated per cluster (the subgradient's Σ_r x_cr term).
func (s *search) knap(alive bitset, mu []float64, r int32, frac []float64) float64 {
	s.items = s.items[:0]
	for i := s.rowStart[r]; i < s.rowStart[r+1]; i++ {
		a := s.rowArcs[i]
		if alive.get(a) && s.arcCost[a]-mu[s.arcClus[a]] < 0 {
			s.items = append(s.items, a)
		}
	}
	// Density order without division: red_x/w_x < red_y/w_y ⟺
	// red_x·w_y < red_y·w_x (widths are positive).
	slices.SortFunc(s.items, func(x, y int32) int {
		rx := (s.arcCost[x] - mu[s.arcClus[x]]) * float64(s.in.Width[s.arcClus[y]])
		ry := (s.arcCost[y] - mu[s.arcClus[y]]) * float64(s.in.Width[s.arcClus[x]])
		if rx != ry {
			if rx < ry {
				return -1
			}
			return 1
		}
		return int(x - y)
	})
	rem := s.in.Cap
	var v float64
	for _, a := range s.items {
		if rem <= 0 {
			break
		}
		c := s.arcClus[a]
		w := s.in.Width[c]
		red := s.arcCost[a] - mu[c]
		if w <= rem {
			v += red
			rem -= w
			if frac != nil {
				frac[c]++
			}
		} else {
			f := float64(rem) / float64(w)
			v += red * f
			if frac != nil {
				frac[c] += f
			}
			rem = 0
		}
	}
	return v
}

// eval computes the Lagrangian value at mu on the node's arcs. The
// assignment rows (Σ_r x_cr = 1) are dualized, so the subproblem keeps the
// hard coupling: per-row LP knapsacks over negative reduced costs (Eq. 4,
// with x ≤ y implicit — only selected rows count), and the Eq. 5 cardinality
// picks the open rows plus the most negative knapsack values (vRow/yOpen).
// Side effects: frac holds each cluster's fractional coverage (subgradient),
// pick/load an integral tentative assignment preferring selected rows.
// Returns -Inf/false when some cluster has no alive arc.
func (s *search) eval(alive bitset, mu []float64) (float64, bool) {
	var sumMu float64
	for c := 0; c < s.nC; c++ {
		sumMu += mu[c]
		s.frac[c] = 0
	}
	for r := 0; r < s.nR; r++ {
		s.vRow[r] = 0
		if s.rows[r] != rowClosed {
			s.vRow[r] = s.knap(alive, mu, int32(r), nil)
		}
	}
	// Row selection: open rows (branched open or hosting a singleton) count
	// in every solution of this node; the remaining Eq. 5 budget goes to the
	// most negative knapsack values. Closed rows never enter.
	var sumV float64
	for r := 0; r < s.nR; r++ {
		s.yOpen[r] = s.openRow[r]
		if s.openRow[r] {
			sumV += s.vRow[r]
		}
		s.rowOrder[r] = int32(r)
	}
	k := s.in.NminR - s.nOpenRows
	if k > 0 {
		slices.SortFunc(s.rowOrder, func(a, b int32) int {
			if s.vRow[a] != s.vRow[b] {
				if s.vRow[a] < s.vRow[b] {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		for _, r := range s.rowOrder {
			if k == 0 {
				break
			}
			if s.openRow[r] || s.rows[r] == rowClosed {
				continue
			}
			s.yOpen[r] = true
			sumV += s.vRow[r]
			k--
		}
	}
	// Fractional coverage of the selected rows drives the subgradient.
	for r := 0; r < s.nR; r++ {
		if s.yOpen[r] && s.rows[r] != rowClosed {
			s.knap(alive, mu, int32(r), s.frac)
		}
	}
	// Integral tentative pick: cheapest alive arc on a selected row, overall
	// cheapest as fallback (surfacing as a violation for branching). μ shifts
	// all of a cluster's arcs equally, so true cost order is reduced order.
	for r := 0; r < s.nR; r++ {
		s.load[r] = 0
	}
	for c := 0; c < s.nC; c++ {
		bestA, bestIn := int32(-1), false
		bestC := math.Inf(1)
		for a := s.start[c]; a < s.start[c+1]; a++ {
			if !alive.get(a) {
				continue
			}
			in := s.yOpen[s.arcRow[a]]
			if (in && !bestIn) || (in == bestIn && s.arcCost[a] < bestC) {
				bestA, bestIn, bestC = a, in, s.arcCost[a]
			}
		}
		if bestA < 0 {
			return math.Inf(-1), false
		}
		s.pick[c] = bestA
		s.load[s.arcRow[bestA]] += s.in.Width[c]
	}
	return sumMu + sumV, true
}

// pickFeasible reports whether the current pick/load satisfies Eq. 4/5.
func (s *search) pickFeasible() bool {
	used := 0
	for r := 0; r < s.nR; r++ {
		if s.load[r] > s.in.Cap {
			return false
		}
		if s.load[r] > 0 {
			used++
		}
	}
	return used <= s.in.NminR
}

// pickCost sums the true (unrelaxed) cost of the current pick in cluster
// index order, matching the fixed accumulation order used everywhere else.
func (s *search) pickCost(pick []int32) float64 {
	var obj float64
	for c := 0; c < s.nC; c++ {
		obj += s.arcCost[pick[c]]
	}
	return obj
}

// subgradient maximizes the Lagrangian dual from mu with a step-halving
// subgradient method, updating mu in place (free sign — the dualized
// constraints are equalities). Every iterate yields a valid lower bound;
// the best one is returned and its multipliers kept in bestMu. Feasible
// integral picks are offered as incumbents. theta0 scales the first steps —
// large at the root, small at warm-started nodes.
func (s *search) subgradient(alive bitset, mu []float64, iters int, theta0 float64) float64 {
	bestBound := math.Inf(-1)
	theta := theta0
	noImp := 0
	for it := 0; it < iters; it++ {
		L, ok := s.eval(alive, mu)
		if !ok {
			return math.Inf(1) // no alive arc: the node is infeasible
		}
		s.iters++
		if L > bestBound {
			bestBound = L
			copy(s.bestMu, mu)
			noImp = 0
		} else {
			noImp++
		}
		if s.pickFeasible() {
			if obj := s.pickCost(s.pick); !s.hasInc || obj < s.incObj {
				for c := 0; c < s.nC; c++ {
					s.repAssign[c] = s.arcRow[s.pick[c]]
				}
				s.offerIncumbent(s.repAssign, obj)
			}
		}
		if s.hasInc && bestBound >= s.incObj-s.gapAbs() {
			break // the node is already bound-dominated
		}
		var norm2 float64
		for c := 0; c < s.nC; c++ {
			g := 1 - s.frac[c]
			s.g[c] = g
			norm2 += g * g
		}
		if norm2 == 0 {
			break // every cluster exactly covered: subgradient vanishes
		}
		ub := s.trivUB
		if s.hasInc {
			ub = s.incObj
		}
		step := theta * (ub - L) / norm2
		if step <= 0 {
			break
		}
		for c := 0; c < s.nC; c++ {
			mu[c] += step * s.g[c]
		}
		if noImp >= 8 {
			theta /= 2
			noImp = 0
			if theta < 1e-3 {
				break
			}
		}
	}
	return bestBound
}

// repair builds a feasible assignment near the relaxation's pick: open the
// node's open rows plus the most-loaded picked rows up to N_minR, place
// clusters widest-first on their cheapest alive arc with remaining capacity,
// then run relocation passes. Feasible results are offered as incumbents.
// Closed rows never enter the open set: their arcs are already dead, so
// their relaxed load is zero and no candidate arc can reach them.
func (s *search) repair(alive bitset) {
	for r := 0; r < s.nR; r++ {
		s.repOpen[r] = s.openRow[r]
		s.repLoad[r] = 0
		s.rowOrder[r] = int32(r)
	}
	open := s.nOpenRows
	slices.SortFunc(s.rowOrder, func(a, b int32) int {
		if s.load[a] != s.load[b] {
			if s.load[a] > s.load[b] {
				return -1
			}
			return 1
		}
		if s.vRow[a] != s.vRow[b] {
			if s.vRow[a] < s.vRow[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	for _, r := range s.rowOrder {
		if open == s.in.NminR {
			break
		}
		if s.repOpen[r] || s.load[r] == 0 {
			continue
		}
		s.repOpen[r] = true
		open++
	}

	for _, c := range s.byWidth {
		w := s.in.Width[c]
		bestA := int32(-1)
		bestC := math.Inf(1)
		for a := s.start[c]; a < s.start[c+1]; a++ {
			if !alive.get(a) {
				continue
			}
			r := s.arcRow[a]
			if !s.repOpen[r] || s.repLoad[r]+w > s.in.Cap {
				continue
			}
			if s.arcCost[a] < bestC {
				bestC, bestA = s.arcCost[a], a
			}
		}
		if bestA < 0 && open < s.in.NminR {
			// Open the cheapest feasible fresh row for this cluster.
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if !alive.get(a) {
					continue
				}
				r := s.arcRow[a]
				if s.repOpen[r] || s.repLoad[r]+w > s.in.Cap {
					continue
				}
				if s.arcCost[a] < bestC {
					bestC, bestA = s.arcCost[a], a
				}
			}
			if bestA >= 0 {
				s.repOpen[s.arcRow[bestA]] = true
				open++
			}
		}
		if bestA < 0 {
			return // repair failed at this node; bounds still stand
		}
		s.repAssign[c] = s.arcRow[bestA]
		s.repLoad[s.arcRow[bestA]] += w
	}

	// Relocation improvement: move clusters to strictly cheaper open rows.
	for pass := 0; pass < 2; pass++ {
		improved := false
		for c := 0; c < s.nC; c++ {
			if s.singleton[c] >= 0 {
				continue
			}
			cur := s.repAssign[c]
			var curCost float64
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if s.arcRow[a] == cur {
					curCost = s.arcCost[a]
					break
				}
			}
			w := s.in.Width[c]
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if !alive.get(a) {
					continue
				}
				r := s.arcRow[a]
				if r == cur || !s.repOpen[r] || s.repLoad[r]+w > s.in.Cap {
					continue
				}
				if s.arcCost[a]+1e-9 < curCost {
					s.repLoad[cur] -= w
					s.repLoad[r] += w
					s.repAssign[c] = r
					cur, curCost = r, s.arcCost[a]
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	var obj float64
	for c := 0; c < s.nC; c++ {
		a, ok := s.arcFor(int32(c), s.repAssign[c])
		if !ok {
			return
		}
		obj += s.arcCost[a]
	}
	s.offerIncumbent(s.repAssign, obj)
}

// arcFor returns cluster c's flat arc index for row r (binary search over
// the row-sorted candidate list).
func (s *search) arcFor(c, r int32) (int32, bool) {
	lo, hi := s.start[c], s.start[c+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.arcRow[mid] == r:
			return mid, true
		case s.arcRow[mid] < r:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1, false
}

// fixRows performs Lagrangian reduced-cost fixing with the node's best
// multipliers. Conditioning the relaxed row selection on y_r = 1 for an
// unselected free row swaps out the least negative selected free knapsack
// value (penalty vRow[r] − vWorst ≥ 0) while leaving the rest of the
// relaxation intact — a valid bound on every solution that uses row r. When
// that bound reaches the incumbent (minus tolerance), no improving solution
// uses the row and every arc into it dies. Requires an incumbent. Reports
// whether any arc was killed — the caller must re-propagate then.
func (s *search) fixRows(alive bitset) bool {
	L, ok := s.eval(alive, s.bestMu)
	if !ok {
		return false
	}
	thr := s.incObj - s.gapAbs()
	if L >= thr {
		return false // the caller prunes the whole node
	}
	// Least negative knapsack value among the selected free rows: the one a
	// forced-in row would displace.
	vWorst := math.Inf(-1)
	for r := 0; r < s.nR; r++ {
		s.closeRow[r] = false
		if s.yOpen[r] && !s.openRow[r] && s.vRow[r] > vWorst {
			vWorst = s.vRow[r]
		}
	}
	if math.IsInf(vWorst, -1) {
		return false // budget fully forced; propagate already prunes here
	}
	closing := false
	for r := 0; r < s.nR; r++ {
		if s.yOpen[r] || s.rows[r] == rowClosed {
			continue
		}
		if L+(s.vRow[r]-vWorst) >= thr {
			s.closeRow[r] = true
			closing = true
		}
	}
	if !closing {
		return false
	}
	changed := false
	for a := int32(0); a < int32(s.nA); a++ {
		if s.closeRow[s.arcRow[a]] && alive.get(a) {
			alive.clear(a)
			changed = true
		}
	}
	return changed
}

// branch selects the branching decision after refreshing the analysis state
// at the node's best multipliers. Capacity violations of the integral pick
// branch on an arc: the widest branchable cluster on the most violated row
// (isRow=false, idx is a flat arc index). While the relaxed row selection
// still uses undecided rows, branch on the most negative one — open it for
// good or close it, killing every arc into it — which shrinks the Eq. 5
// row-subset space exponentially faster than forbidding one arc at a time
// (isRow=true, idx is a row index). Once every selected row is decided,
// branch on the max-regret cluster's arc. ok is false when nothing can
// branch (the node is fully fixed).
func (s *search) branch(alive bitset) (idx int32, isRow, ok bool) {
	if _, evalOK := s.eval(alive, s.bestMu); !evalOK {
		return -1, false, false
	}
	// Capacity violation: most overloaded row, widest branchable cluster.
	worst, worstOver := int32(-1), int64(0)
	for r := 0; r < s.nR; r++ {
		if over := s.load[r] - s.in.Cap; over > worstOver {
			worst, worstOver = int32(r), over
		}
	}
	if worst >= 0 {
		if a := s.widestOn(worst); a >= 0 {
			return a, false, true
		}
	}
	// Undecided selected row: dichotomize the one the relaxation leans on
	// hardest (most negative knapsack value) — opening pins the budget,
	// closing forces the dual to relocate the most value.
	bestR, bestV := int32(-1), math.Inf(1)
	for r := 0; r < s.nR; r++ {
		if !s.yOpen[r] || s.openRow[r] || s.rows[r] == rowClosed {
			continue
		}
		if s.vRow[r] < bestV {
			bestR, bestV = int32(r), s.vRow[r]
		}
	}
	if bestR >= 0 {
		return bestR, true, true
	}
	// Rows decided, pick capacity-feasible, gap still open: branch where the
	// assignment decision matters most — the largest cost regret between a
	// cluster's two cheapest alive arcs (μ shifts both equally).
	bestC, bestRegret := int32(-1), -1.0
	for c := 0; c < s.nC; c++ {
		if s.nAlive[c] < 2 {
			continue
		}
		first, second := math.Inf(1), math.Inf(1)
		for a := s.start[c]; a < s.start[c+1]; a++ {
			if !alive.get(a) {
				continue
			}
			if s.arcCost[a] < first {
				first, second = s.arcCost[a], first
			} else if s.arcCost[a] < second {
				second = s.arcCost[a]
			}
		}
		if regret := second - first; regret > bestRegret {
			bestRegret, bestC = regret, int32(c)
		}
	}
	if bestC < 0 {
		return -1, false, false
	}
	return s.pick[bestC], false, true
}

// widestOn returns the picked arc of the widest branchable (≥2 alive arcs)
// cluster assigned to row r in the current integral pick, or -1.
func (s *search) widestOn(r int32) int32 {
	best, bestW := int32(-1), int64(-1)
	for c := 0; c < s.nC; c++ {
		if s.nAlive[c] < 2 || s.arcRow[s.pick[c]] != r {
			continue
		}
		if s.in.Width[c] > bestW {
			best, bestW = s.pick[c], s.in.Width[c]
		}
	}
	return best
}

// clusterOf maps a flat arc index back to its cluster (binary search on the
// start offsets).
func (s *search) clusterOf(a int32) int32 {
	lo, hi := int32(0), int32(s.nC)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.start[mid] <= a {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Solve runs the structure-aware branch and bound. warm, if non-nil, is a
// cluster→row warm start; rows missing from a cluster's candidate list (or
// breaking feasibility) are repaired before use, so a stale warm start can
// only cost quality, never correctness. Cancellation is checked once per
// node. A malformed instance returns an error; infeasibility is reported in
// Result.Status.
func Solve(ctx context.Context, in *Instance, warm []int32, opt Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	s := newSearch(in, opt)
	s.startT = time.Now()
	s.sink = obs.Progress(ctx)
	s.tracer = obs.TracerFrom(ctx)
	res := &Result{Status: Limit, Bound: math.Inf(-1), Obj: math.Inf(1)}
	span := obs.StartSpan(ctx, "rap.bnb")
	s.span = span
	defer func() {
		span.SetArg("status", res.Status.String())
		span.SetArg("nodes", res.Nodes)
		span.SetArg("subgrad_iters", res.Iters)
		span.End()
	}()
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = s.startT.Add(opt.TimeLimit)
	}

	finish := func() *Result {
		res.Nodes, res.Iters = s.nodes, s.iters
		if s.hasInc {
			res.Assign = append([]int32(nil), s.inc...)
			res.Obj = s.incObj
			if res.Status == Limit {
				res.Status = Feasible
			}
		}
		return res
	}

	root := &node{bound: math.Inf(-1), alive: newBitset(s.nA), depth: 0, seq: 0}
	root.alive.setAll(s.nA)
	root.lam = make([]float64, s.nC)
	root.rows = make([]int8, s.nR)
	// Cold duals: each cluster's cheapest cost. All reduced costs start at
	// ≥ 0 (L = Σ min-cost, the trivial bound) and the subgradient climbs
	// from there.
	for c := 0; c < s.nC; c++ {
		minC := math.Inf(1)
		for a := s.start[c]; a < s.start[c+1]; a++ {
			if s.arcCost[a] < minC {
				minC = s.arcCost[a]
			}
		}
		root.lam[c] = minC
	}
	s.rows = root.rows
	if !s.propagate(root.alive) {
		res.Status = Infeasible
		return finish(), nil
	}
	if warm != nil {
		s.warmStart(root.alive, warm)
	}
	rootBound := s.subgradient(root.alive, root.lam, opt.RootIters, 2.0)
	if math.IsInf(rootBound, 1) {
		res.Status = Infeasible
		return finish(), nil
	}
	s.repair(root.alive)
	// Root reduced-cost fixing: shrink the arc set against the incumbent and
	// re-tighten until a pass changes nothing. A propagation wipeout here
	// means no improving solution exists — the incumbent is optimal.
	for s.hasInc && rootBound < s.incObj-s.gapAbs() && s.fixRows(root.alive) {
		if !s.propagate(root.alive) {
			rootBound = math.Inf(1)
			break
		}
		if b := s.subgradient(root.alive, root.lam, opt.RootIters/4+1, 0.5); b > rootBound {
			rootBound = b
		}
		s.repair(root.alive)
	}
	root.bound = rootBound

	h := &nodeHeap{}
	if !(s.hasInc && rootBound >= s.incObj-s.gapAbs()) {
		h.push(root)
	}
	seq := 1

	for h.Len() > 0 {
		if s.nodes >= opt.MaxNodes {
			res.Stop = StopNodeLimit
			break
		}
		if ctx.Err() != nil {
			res.Stop = StopContext
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Stop = StopTimeLimit
			break
		}
		nd := h.pop()
		if s.hasInc && nd.bound >= s.incObj-s.gapAbs() {
			// Bound-ordered heap: every remaining node is dominated too.
			res.Status = Optimal
			res.Bound = s.incObj
			return finish(), nil
		}
		s.nodes++

		s.rows = nd.rows
		if !s.propagate(nd.alive) {
			continue
		}
		allFixed := true
		for c := 0; c < s.nC; c++ {
			if s.singleton[c] < 0 {
				allFixed = false
				break
			}
		}
		if allFixed {
			// Exactly one assignment remains; propagate already proved it
			// satisfies Eq. 4/5.
			for c := 0; c < s.nC; c++ {
				s.repAssign[c] = s.arcRow[s.singleton[c]]
			}
			var obj float64
			for c := 0; c < s.nC; c++ {
				obj += s.arcCost[s.singleton[c]]
			}
			s.offerIncumbent(s.repAssign, obj)
			continue
		}
		bound := s.subgradient(nd.alive, nd.lam, opt.NodeIters, 0.3)
		if bound < nd.bound {
			bound = nd.bound // the parent's bound stays valid for the child
		}
		pruned := math.IsInf(bound, 1) // infeasible after propagation
		for !pruned {
			if s.hasInc && bound >= s.incObj-s.gapAbs() {
				pruned = true
				break
			}
			s.repair(nd.alive)
			if s.hasInc && bound >= s.incObj-s.gapAbs() {
				pruned = true
				break
			}
			if !s.hasInc || !s.fixRows(nd.alive) {
				break // nothing fixed: the node state is settled, branch
			}
			if !s.propagate(nd.alive) {
				pruned = true // fixing left no improving solution here
				break
			}
			if b := s.subgradient(nd.alive, nd.lam, opt.NodeIters, 0.3); b > bound {
				bound = b
			}
		}
		if pruned {
			continue
		}

		br, isRow, ok := s.branch(nd.alive)
		if !ok {
			continue
		}
		if isRow {
			// Row dichotomy: closed kills every arc into the row (propagate
			// does the killing from the row state); open charges the row
			// against the N_minR budget for the whole subtree. Row states
			// are monotone, so the tree stays finite.
			closed := &node{bound: bound, alive: nd.alive.clone(), rows: append([]int8(nil), nd.rows...), lam: append([]float64(nil), nd.lam...), depth: nd.depth + 1, seq: seq}
			seq++
			closed.rows[br] = rowClosed
			opened := &node{bound: bound, alive: nd.alive, rows: append([]int8(nil), nd.rows...), lam: nd.lam, depth: nd.depth + 1, seq: seq}
			seq++
			opened.rows[br] = rowOpen
			h.push(opened)
			h.push(closed)
			continue
		}
		c := s.clusterOf(br)
		// Child 1: forbid the arc. Arc branches leave row states untouched,
		// so both children alias the parent's rows slice (never mutated).
		forbid := &node{bound: bound, alive: nd.alive.clone(), rows: nd.rows, lam: append([]float64(nil), nd.lam...), depth: nd.depth + 1, seq: seq}
		seq++
		forbid.alive.clear(br)
		// Child 2: force the cluster onto the arc.
		force := &node{bound: bound, alive: nd.alive, rows: nd.rows, lam: nd.lam, depth: nd.depth + 1, seq: seq}
		seq++
		for a := s.start[c]; a < s.start[c+1]; a++ {
			if a != br {
				force.alive.clear(a)
			}
		}
		h.push(force)
		h.push(forbid)
	}

	if h.Len() == 0 {
		if s.hasInc {
			res.Status = Optimal
			res.Bound = s.incObj
		} else {
			res.Status = Infeasible
		}
		return finish(), nil
	}
	// Limit hit: the heap minimum is the tightest valid global lower bound,
	// capped by the fixing threshold — solutions excluded by reduced-cost
	// fixing are only known to be ≥ incObj − gapAbs.
	res.Bound = (*h)[0].bound
	if s.hasInc {
		if t := s.incObj - s.gapAbs(); t < res.Bound {
			res.Bound = t
		}
	}
	return finish(), nil
}

// warmStart validates a caller-supplied assignment against the root arcs,
// repairs clusters whose row is missing or over capacity, and offers the
// result as the initial incumbent.
func (s *search) warmStart(alive bitset, warm []int32) {
	if len(warm) != s.nC {
		return
	}
	for r := 0; r < s.nR; r++ {
		s.repLoad[r] = 0
		s.repOpen[r] = false
	}
	open := 0
	bad := false
	for c := 0; c < s.nC; c++ {
		a, ok := s.arcFor(int32(c), warm[c])
		if !ok || !alive.get(a) {
			s.repAssign[c] = -1
			bad = true
			continue
		}
		s.repAssign[c] = warm[c]
		r := warm[c]
		s.repLoad[r] += s.in.Width[c]
		if !s.repOpen[r] {
			s.repOpen[r] = true
			open++
		}
	}
	if open > s.in.NminR {
		return // stale beyond repair; the root repair will build one instead
	}
	for r := 0; r < s.nR; r++ {
		if s.repLoad[r] > s.in.Cap {
			return
		}
	}
	if bad {
		for _, c := range s.byWidth {
			if s.repAssign[c] >= 0 {
				continue
			}
			w := s.in.Width[c]
			bestA := int32(-1)
			bestC := math.Inf(1)
			for a := s.start[c]; a < s.start[c+1]; a++ {
				if !alive.get(a) {
					continue
				}
				r := s.arcRow[a]
				if s.repLoad[r]+w > s.in.Cap {
					continue
				}
				if s.repOpen[r] || open < s.in.NminR {
					if s.arcCost[a] < bestC {
						bestC, bestA = s.arcCost[a], a
					}
				}
			}
			if bestA < 0 {
				return
			}
			r := s.arcRow[bestA]
			s.repAssign[c] = r
			s.repLoad[r] += w
			if !s.repOpen[r] {
				s.repOpen[r] = true
				open++
			}
		}
	}
	var obj float64
	for c := 0; c < s.nC; c++ {
		a, ok := s.arcFor(int32(c), s.repAssign[c])
		if !ok {
			return
		}
		obj += s.arcCost[a]
	}
	s.offerIncumbent(s.repAssign, obj)
}

// aliveCount counts alive arcs; tests use it to assert branching shrinks
// the arc set.
func aliveCount(b bitset) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}
