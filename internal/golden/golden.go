// Package golden maintains the committed regression corpus: per-testcase
// displacement/HPWL snapshots for a fixed set of small designs across all
// five flows. The snapshot lives at internal/golden/testdata/golden.json and
// is compared by TestGoldenRegression under a small relative tolerance, so
// any behavioural drift in the placer — solver, legalizer, cost model —
// shows up as a failing test with a precise diff. Each flow entry also pins
// a digest of its final placement written as DEF, compared exactly, so a
// change that moves a single cell fails even when the totals agree.
//
// Regenerate after an intentional behaviour change with
//
//	go run ./cmd/gentest -golden
//
// and review the JSON diff like any other code change.
package golden

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"

	"mthplace/internal/flow"
	"mthplace/internal/lefdef"
	"mthplace/internal/synth"
)

// Corpus parameters. Small scales keep the whole 3×5 matrix under a few
// seconds while still exercising clustering, the RAP ILP, restacking and
// legalization on three differently shaped designs.
const (
	Schema = 3
	Scale  = 0.02
	Seed   = 1
	// DefaultTol is the relative tolerance applied per metric. The flows
	// are deterministic, so the corpus would reproduce exactly; the slack
	// exists to absorb intentional micro-tuning without churn, while still
	// catching real regressions (0.5% of HPWL is far below any algorithmic
	// change observed in practice).
	DefaultTol = 0.005
)

// Designs are the Table II testcases in the corpus.
var Designs = []string{"aes_300", "fpu_4000", "des3_210"}

// Degraded-entry parameters: one design re-run with the branch-and-bound
// budget pinned to a single node, which deterministically stops the search
// before optimality is proven and forces the solve ladder onto its anytime
// rung (the design is one whose optimum the root bound cannot prove). Pinning this entry keeps
// the ladder itself — not just the happy path — under regression control.
const (
	DegradedDesign   = "fpu_4000"
	DegradedMaxNodes = 1
)

// DegradedFlows are the ILP flows captured in the degraded entry.
var DegradedFlows = []flow.ID{flow.Flow4, flow.Flow5}

// FlowMetrics is one flow's snapshot on one design.
type FlowMetrics struct {
	Displacement int64 `json:"disp"`
	HPWL         int64 `json:"hpwl"`
	// Rung is the solve-ladder rung that produced the metrics ("baseline"
	// for Flow 1, "ilp" for proven-optimal solves, "anytime"/"greedy" for
	// degraded ones). Compared exactly: a ladder regression that silently
	// changes which rung answers is precisely what this field catches.
	Rung string `json:"rung,omitempty"`
	// Gap is the recorded optimality-gap bound of a degraded solve
	// (0 for proven optimum, -1 for unknown).
	Gap float64 `json:"gap,omitempty"`
	// DEF is the FNV-64a digest (16 hex digits) of the final placement as
	// written by lefdef.WriteDEF. Compared exactly at any tolerance: it is
	// the byte-identical-DEF guarantee for every flow on every design.
	DEF string `json:"def,omitempty"`
}

// DesignSnapshot holds one design's shape and per-flow metrics.
type DesignSnapshot struct {
	Name  string                 `json:"name"`
	Cells int                    `json:"cells"`
	Nets  int                    `json:"nets"`
	Flows map[string]FlowMetrics `json:"flows"`
}

// Snapshot is the whole committed corpus.
type Snapshot struct {
	Schema  int              `json:"schema"`
	Scale   float64          `json:"scale"`
	Seed    int64            `json:"seed"`
	Designs []DesignSnapshot `json:"designs"`
	// Degraded pins the anytime rung of the solve ladder: DegradedDesign
	// re-run with a single-node search budget (see the Degraded* consts).
	Degraded *DesignSnapshot `json:"degraded,omitempty"`
}

// FlowKey names a flow in the snapshot ("flow1".."flow5").
func FlowKey(id flow.ID) string { return fmt.Sprintf("flow%d", int(id)) }

// Compute runs every flow on every corpus design and returns a fresh
// snapshot. Each run executes with Config.Verify set, so a snapshot can
// only be produced from placements that pass the full invariant checker.
func Compute(ctx context.Context) (*Snapshot, error) {
	s := &Snapshot{Schema: Schema, Scale: Scale, Seed: Seed}
	for _, name := range Designs {
		spec, err := synth.Lookup(name)
		if err != nil {
			return nil, err
		}
		cfg := flow.DefaultConfig()
		cfg.Synth.Scale = Scale
		cfg.Synth.Seed = Seed
		cfg.Verify = true
		r, err := flow.NewRunner(ctx, spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("golden: %s: %w", name, err)
		}
		ds := DesignSnapshot{
			Name:  name,
			Cells: len(r.Base.Insts),
			Nets:  len(r.Base.Nets),
			Flows: map[string]FlowMetrics{},
		}
		for _, id := range []flow.ID{flow.Flow1, flow.Flow2, flow.Flow3, flow.Flow4, flow.Flow5} {
			res, err := r.Run(ctx, id, false)
			if err != nil {
				return nil, fmt.Errorf("golden: %s %v: %w", name, id, err)
			}
			if ds.Flows[FlowKey(id)], err = flowMetrics(res); err != nil {
				return nil, fmt.Errorf("golden: %s %v: %w", name, id, err)
			}
		}
		s.Designs = append(s.Designs, ds)
	}
	deg, err := computeDegraded(ctx)
	if err != nil {
		return nil, err
	}
	s.Degraded = deg
	return s, nil
}

// computeDegraded runs the degraded-entry flows with the search budget
// deterministically exhausted (node limit 1), so the solve
// ladder must answer from its anytime rung. The budget is a node count,
// not wall-clock, so the entry reproduces exactly on any machine. Each run
// still executes under Config.Verify: a degraded answer must be a legal
// placement like any other.
func computeDegraded(ctx context.Context) (*DesignSnapshot, error) {
	spec, err := synth.Lookup(DegradedDesign)
	if err != nil {
		return nil, err
	}
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = Scale
	cfg.Synth.Seed = Seed
	cfg.Verify = true
	cfg.Core.Solve.MaxNodes = DegradedMaxNodes
	r, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		return nil, fmt.Errorf("golden: degraded %s: %w", DegradedDesign, err)
	}
	ds := &DesignSnapshot{
		Name:  DegradedDesign,
		Cells: len(r.Base.Insts),
		Nets:  len(r.Base.Nets),
		Flows: map[string]FlowMetrics{},
	}
	for _, id := range DegradedFlows {
		res, err := r.Run(ctx, id, false)
		if err != nil {
			return nil, fmt.Errorf("golden: degraded %s %v: %w", DegradedDesign, id, err)
		}
		if ds.Flows[FlowKey(id)], err = flowMetrics(res); err != nil {
			return nil, fmt.Errorf("golden: degraded %s %v: %w", DegradedDesign, id, err)
		}
	}
	return ds, nil
}

// flowMetrics snapshots one flow result, including the digest of its final
// placement.
func flowMetrics(res *flow.Result) (FlowMetrics, error) {
	digest, err := defDigest(res)
	if err != nil {
		return FlowMetrics{}, err
	}
	return FlowMetrics{
		Displacement: res.Metrics.Displacement,
		HPWL:         res.Metrics.HPWL,
		Rung:         res.Metrics.SolveRung,
		Gap:          res.Metrics.SolveGap,
		DEF:          digest,
	}, nil
}

// defDigest is the FNV-64a digest of the result's final placement written
// by lefdef.WriteDEF, as 16 hex digits.
func defDigest(res *flow.Result) (string, error) {
	h := fnv.New64a()
	if err := lefdef.WriteDEF(h, res.Design); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// Load reads a snapshot from disk.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", path, err)
	}
	return &s, nil
}

// Save writes the snapshot as stable, indented JSON.
func (s *Snapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare returns a human-readable diff line per mismatch between got and
// want. Shape fields (schema, scale, seed, design set, cell/net counts),
// solve rungs and DEF digests are compared exactly; metrics within relative
// tolerance tol.
func Compare(got, want *Snapshot, tol float64) []string {
	var diffs []string
	diff := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	if got.Schema != want.Schema {
		diff("schema: got %d, want %d", got.Schema, want.Schema)
	}
	if got.Scale != want.Scale || got.Seed != want.Seed {
		diff("corpus parameters: got scale=%v seed=%d, want scale=%v seed=%d",
			got.Scale, got.Seed, want.Scale, want.Seed)
	}
	byName := map[string]*DesignSnapshot{}
	for i := range got.Designs {
		byName[got.Designs[i].Name] = &got.Designs[i]
	}
	for i := range want.Designs {
		w := &want.Designs[i]
		g, ok := byName[w.Name]
		if !ok {
			diff("%s: missing from computed snapshot", w.Name)
			continue
		}
		compareDesign(diff, w.Name, g, w, tol)
	}
	if len(got.Designs) != len(want.Designs) {
		diff("design count: got %d, want %d", len(got.Designs), len(want.Designs))
	}
	switch {
	case want.Degraded == nil:
	case got.Degraded == nil:
		diff("degraded: missing from computed snapshot")
	default:
		compareDesign(diff, "degraded/"+want.Degraded.Name, got.Degraded, want.Degraded, tol)
	}
	return diffs
}

// compareDesign diffs one design's shape and per-flow metrics. The rung and
// the DEF digest are compared exactly — a ladder that answers from a
// different rung, or a placement with one cell moved, is a behaviour change
// even when the metrics happen to agree.
func compareDesign(diff func(string, ...any), label string, g, w *DesignSnapshot, tol float64) {
	if g.Cells != w.Cells || g.Nets != w.Nets {
		diff("%s: shape drift: got %d cells/%d nets, want %d cells/%d nets",
			label, g.Cells, g.Nets, w.Cells, w.Nets)
	}
	keys := make([]string, 0, len(w.Flows))
	for k := range w.Flows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wm := w.Flows[k]
		gm, ok := g.Flows[k]
		if !ok {
			diff("%s/%s: missing from computed snapshot", label, k)
			continue
		}
		if !within(gm.Displacement, wm.Displacement, tol) {
			diff("%s/%s: displacement drift: got %d, want %d (tol %.2f%%)",
				label, k, gm.Displacement, wm.Displacement, 100*tol)
		}
		if !within(gm.HPWL, wm.HPWL, tol) {
			diff("%s/%s: HPWL drift: got %d, want %d (tol %.2f%%)",
				label, k, gm.HPWL, wm.HPWL, 100*tol)
		}
		if gm.Rung != wm.Rung {
			diff("%s/%s: solve rung drift: got %q, want %q", label, k, gm.Rung, wm.Rung)
		}
		if gm.DEF != wm.DEF {
			diff("%s/%s: DEF digest drift: got %s, want %s", label, k, gm.DEF, wm.DEF)
		}
		if math.Abs(gm.Gap-wm.Gap) > tol*math.Max(1, math.Abs(wm.Gap)) {
			diff("%s/%s: gap drift: got %g, want %g (tol %.2f%%)",
				label, k, gm.Gap, wm.Gap, 100*tol)
		}
	}
}

func within(got, want int64, tol float64) bool {
	return math.Abs(float64(got-want)) <= tol*math.Max(1, math.Abs(float64(want)))
}
