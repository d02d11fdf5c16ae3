package legalize

import (
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// BenchmarkLegalize measures uniform Abacus legalization end to end. Each
// iteration restores the pre-legalization global placement so every run does
// the same packing work.

// placedForBench generates a testcase in mLEF form with a global placement
// but no legalization, so each benchmark iteration starts from overlapping
// target positions.
func placedForBench(b *testing.B) (*netlist.Design, rowgrid.PairGrid) {
	b.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = 0.05
	d, err := synth.Generate(tc, lib, synth.TableII()[0], opt)
	if err != nil {
		b.Fatal(err)
	}
	m, err := lefdef.ApplyMLEF(d)
	if err != nil {
		b.Fatal(err)
	}
	placer.Global(d, placer.Options{OuterIters: 5, SolveSweeps: 8})
	return d, rowgrid.Uniform(d.Die, m.PairH)
}

func BenchmarkLegalize(b *testing.B) {
	d, g := placedForBench(b)
	orig := make([]geom.Point, len(d.Insts))
	for i, in := range d.Insts {
		orig[i] = in.Pos
	}
	b.ReportAllocs()
	for b.Loop() {
		for i, in := range d.Insts {
			in.Pos = orig[i]
		}
		if err := Uniform(d, g); err != nil {
			b.Fatal(err)
		}
	}
}
