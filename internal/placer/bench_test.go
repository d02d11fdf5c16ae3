package placer

import (
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/par"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// design20k is scale_20k's 20k-cell nova_300 design, ready for global
// placement.
func design20k(b *testing.B) *netlist.Design {
	sp := specNamed(b, "nova_300")
	so := synth.DefaultOptions()
	so.Scale = sp.ScaleForCells(20_000)
	tc := tech.Default()
	d, err := synth.Generate(tc, celllib.New(tc), sp, so)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := lefdef.ApplyMLEF(d); err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkGlobal20k places design20k with default options on the default
// pool, which MTHPLACE_JOBS bounds.
func BenchmarkGlobal20k(b *testing.B) {
	d := design20k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		work := d.Clone()
		b.StartTimer()
		Global(work, Options{})
	}
}

// benchSolve times one outer iteration's 24 sweeps on design20k, from the
// synthesised positions, by the solve that prep returns.
func benchSolve(b *testing.B, prep func(d *netlist.Design) func(cx, cy, ax, ay []float64)) {
	d := design20k(b)
	cx := make([]float64, len(d.Insts))
	cy := make([]float64, len(d.Insts))
	for i, in := range d.Insts {
		cx[i], cy[i] = float64(in.Pos.X), float64(in.Pos.Y)
	}
	ax, ay := append([]float64(nil), cx...), append([]float64(nil), cy...)
	solve := prep(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve(cx, cy, ax, ay)
	}
}

// BenchmarkSolveGather is the two-phase solve on one worker.
func BenchmarkSolveGather(b *testing.B) {
	benchSolve(b, func(d *netlist.Design) func(cx, cy, ax, ay []float64) {
		m, pool := buildStar(d), par.NewPool(1)
		return func(cx, cy, ax, ay []float64) { m.solve(pool, d.Die, cx, cy, ax, ay, 0.1, 24) }
	})
}

// BenchmarkSolveScatter is the scatter solve it replaced.
func BenchmarkSolveScatter(b *testing.B) {
	benchSolve(b, func(d *netlist.Design) func(cx, cy, ax, ay []float64) {
		nets, movable := refBuildNets(d), make([]bool, len(d.Insts))
		for i := range movable {
			movable[i] = true
		}
		return func(cx, cy, ax, ay []float64) { refSolve(d, nets, cx, cy, ax, ay, movable, 0.1, 24) }
	})
}
