package main

import (
	"context"
	"fmt"
	"runtime"

	"mthplace/internal/baseline"
	"mthplace/internal/celllib"
	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/par"
	"mthplace/internal/placer"
	"mthplace/internal/power"
	"mthplace/internal/route"
	"mthplace/internal/rowgrid"
	"mthplace/internal/sta"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// mirror replays flow.Runner from the same public calls the runner makes,
// one span around each call. The traced run executes the placer's own code
// with no tracer in the context; only the harness's bookkeeping is added.
// Its outputs are compared bit for bit with the untraced run's, which
// keeps the replay from drifting away from flow.Runner.
type mirror struct {
	tr    *tracer
	stack []int
	// allocMB accumulates runtime.MemStats.TotalAlloc deltas per layer.
	allocMB map[string]float64
	// Counts gathered along the way.
	cells, clusters, nodes, overflow int
}

func newMirror(tr *tracer) *mirror {
	return &mirror{tr: tr, allocMB: map[string]float64{}}
}

// call wraps one call into a layer, or a group of further calls, in a span.
func (m *mirror) call(name string, fn func() error) error {
	parent := -1
	if len(m.stack) > 0 {
		parent = m.stack[len(m.stack)-1]
	}
	id := m.tr.open(name, parent, 0)
	m.stack = append(m.stack, id)
	err := fn()
	m.stack = m.stack[:len(m.stack)-1]
	m.tr.close(id)
	return err
}

// callAlloc is call plus the bytes the call allocated. The MemStats reads
// sit outside the span so the stop-the-world they cost is not charged to
// the layer.
func (m *mirror) callAlloc(name string, fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := m.call(name, fn)
	runtime.ReadMemStats(&after)
	m.allocMB[name] += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return err
}

// mirrorRunner is the state flow.NewRunner prepares.
type mirrorRunner struct {
	cfg   flow.Config
	pool  *par.Pool
	base  *netlist.Design
	grid  rowgrid.PairGrid
	ref   []geom.Point
	nminR int
}

// prepare mirrors flow.NewRunner on the default (AoS) representation.
func (m *mirror) prepare(spec synth.Spec, cfg flow.Config) (*mirrorRunner, error) {
	r := &mirrorRunner{cfg: cfg, pool: cfg.EffectivePool()}
	err := m.call("flow.prepare", func() error {
		tc := tech.Default()
		lib := celllib.New(tc)
		var d *netlist.Design
		if err := m.call("synth.generate", func() (err error) {
			d, err = synth.Generate(tc, lib, spec, cfg.Synth)
			return err
		}); err != nil {
			return err
		}
		m.cells += len(d.Insts)
		var ml *lefdef.MLEF
		if err := m.call("lefdef.mlef", func() (err error) {
			ml, err = lefdef.ApplyMLEF(d)
			return err
		}); err != nil {
			return err
		}
		_ = m.callAlloc("placer.global", func() error {
			placer.Global(d, cfg.Placer)
			return nil
		})
		if err := m.call("legalize.uniform", func() error {
			r.grid = rowgrid.Uniform(d.Die, ml.PairH)
			return legalize.Uniform(d, r.grid)
		}); err != nil {
			return err
		}
		_ = m.call("netlist.positions", func() error {
			r.ref = d.Positions()
			return nil
		})
		r.base = d
		return m.call("baseline.assign", func() error {
			ba, err := baseline.AssignRows(d, r.grid, cfg.Baseline)
			if err != nil {
				return fmt.Errorf("baseline row assignment: %w", err)
			}
			r.nminR = ba.NminR
			return nil
		})
	})
	if err != nil {
		return nil, fmt.Errorf("mirror: prepare %s: %w", spec.Name(), err)
	}
	return r, nil
}

// table mirrors the per-testcase loop of one exp table: prepare each
// testcase, then run the table's flows in order. Rows come back in
// testcase order, columns in flow order.
func (m *mirror) table(ctx context.Context, name string, specs []synth.Spec, cfg flow.Config, ids []flow.ID, withRoute bool) ([][]flowOut, error) {
	rows := make([][]flowOut, len(specs))
	for si, sp := range specs {
		rows[si] = make([]flowOut, len(ids))
		if err := m.call(name, func() error {
			r, err := m.prepare(sp, cfg)
			if err != nil {
				return err
			}
			for k, id := range ids {
				if rows[si][k], err = m.run(ctx, r, id, withRoute); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// flowOut is what the replay of one flow produces.
type flowOut struct {
	Disp, HPWL, RoutedWL int64
	PowerMW, WNS, TNS    float64
	Optimal              bool
}

// run mirrors flow.Runner.Run for one flow.
func (m *mirror) run(ctx context.Context, r *mirrorRunner, id flow.ID, withRoute bool) (flowOut, error) {
	var out flowOut
	ctx = par.WithPool(ctx, r.pool)
	cfg := r.cfg
	err := m.call("flow.run", func() error {
		var d *netlist.Design
		_ = m.call("netlist.clone", func() error {
			d = r.base.Clone()
			return nil
		})
		if id == flow.Flow1 {
			_ = m.call("netlist.metrics", func() error {
				out.HPWL = d.TotalHPWL()
				return nil
			})
		} else if err := m.constrained(ctx, r, id, d, &out); err != nil {
			return err
		}
		if !withRoute {
			return nil
		}
		var rt *route.Result
		if err := m.callAlloc("route.route", func() (err error) {
			rt, err = route.Route(d, cfg.Route)
			return err
		}); err != nil {
			return err
		}
		m.overflow += rt.Overflow
		if err := m.call("sta.analyze", func() error {
			opt := cfg.STA
			opt.NetLength = rt.NetLength
			timing, err := sta.Analyze(d, opt)
			if err == nil {
				out.WNS, out.TNS = timing.WNSps, timing.TNSps
			}
			return err
		}); err != nil {
			return err
		}
		return m.call("power.analyze", func() error {
			opt := cfg.Power
			opt.NetLength = rt.NetLength
			pwr, err := power.Analyze(d, opt)
			if err == nil {
				out.PowerMW = pwr.TotalMW()
				out.RoutedWL = rt.WirelengthDBU
			}
			return err
		})
	})
	if err != nil {
		return out, fmt.Errorf("mirror: %v: %w", id, err)
	}
	return out, nil
}

// constrained mirrors the row assignment, revert and row-constraint
// legalization of Flows (2)–(5).
func (m *mirror) constrained(ctx context.Context, r *mirrorRunner, id flow.ID, d *netlist.Design, out *flowOut) error {
	cfg := r.cfg
	var stack *rowgrid.MixedStack
	var seedY map[int32]int64
	var cellPair map[int32]int
	if id.UsesILP() {
		var cl *core.Clusters
		var model *core.Model
		var sol *core.Assignment
		var ra *core.RowAssignment
		steps := []struct {
			name string
			fn   func() error
		}{
			{"core.cluster", func() (err error) { cl, err = core.BuildClusters(ctx, d, cfg.Core.S, cfg.Core.KMeansIters); return err }},
			{"core.model", func() (err error) {
				model, err = core.BuildModel(ctx, d, r.grid, cl, r.nminR, cfg.Core.Cost)
				return err
			}},
			{"core.solve", func() (err error) { sol, err = core.Solve(ctx, model, cfg.Core.Solve); return err }},
			{"core.finalize", func() (err error) { ra, err = core.Finalize(d, r.grid, model, cl, sol); return err }},
		}
		for _, s := range steps {
			if err := m.call(s.name, s.fn); err != nil {
				return fmt.Errorf("row assignment: %w", err)
			}
		}
		m.clusters += ra.Clusters.N()
		m.nodes += sol.Stats.Nodes
		out.Optimal = sol.Stats.Rung == core.RungILP
		stack, seedY, cellPair = ra.Stack, ra.SeedY, ra.CellPair
	} else if err := m.call("baseline.assign", func() error {
		ba, err := baseline.AssignRows(d, r.grid, cfg.Baseline)
		if err != nil {
			return fmt.Errorf("baseline assignment: %w", err)
		}
		stack, seedY, cellPair = ba.Stack, ba.SeedY, ba.CellPair
		return nil
	}); err != nil {
		return err
	}
	if err := m.call("lefdef.revert", func() error { return lefdef.Revert(d) }); err != nil {
		return err
	}
	if id.UsesFenceLegalization() {
		if err := m.call("legalize.fence", func() error {
			return legalize.FenceAware(ctx, d, stack, seedY, cfg.FencePasses)
		}); err != nil {
			return err
		}
	} else if err := m.call("legalize.rowc", func() error {
		for i, y := range seedY {
			if !d.Insts[i].Fixed {
				d.Insts[i].Pos.Y = y
			}
		}
		return legalize.RowConstraintAssigned(ctx, d, stack, cellPair)
	}); err != nil {
		return err
	}
	if err := m.call("legalize.verify", func() error { return legalize.VerifyMixed(d, stack) }); err != nil {
		return err
	}
	_ = m.call("netlist.metrics", func() error {
		out.Disp = d.Displacement(r.ref)
		out.HPWL = d.TotalHPWL()
		return nil
	})
	return nil
}

// layerSeconds sums the mirror's spans under root by layer name.
func layerSeconds(spans []span, root int, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = busy(spans, root, n).Seconds()
	}
	return out
}
