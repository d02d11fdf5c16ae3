// Package mthplace's root benchmark suite regenerates, at reduced design
// scale, the workload behind every table and figure of the paper (see
// DESIGN.md §4 for the experiment index). Absolute runtimes differ from the
// paper's Innovus/CPLEX testbed; the benchmarks exercise the identical code
// paths the experiments CLI uses at full size:
//
//	BenchmarkTable2TestcaseGeneration  — Table II workload generator
//	BenchmarkTable4PostPlacementFlows  — Table IV (five flows, post-place)
//	BenchmarkTable5PostRouteFlows      — Table V (route + STA + power)
//	BenchmarkFig4aSweepS               — Fig. 4(a) clustering sweep
//	BenchmarkFig4bSweepAlpha           — Fig. 4(b) alpha sweep
//	BenchmarkFig5ILPRuntimeScaling     — Fig. 5 ILP scaling point
//	BenchmarkAblationClustering        — §IV-B.4 clustered vs unclustered ILP
//
// plus per-substrate microbenchmarks of the placer, legalizer, router, STA,
// power analysis, k-means and restacking.
package mthplace_test

import (
	"context"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/cluster"
	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/geom"
	"mthplace/internal/legalize"
	"mthplace/internal/placer"
	"mthplace/internal/power"
	"mthplace/internal/route"
	"mthplace/internal/rowgrid"
	"mthplace/internal/sta"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

const benchScale = 0.02

func benchSpec(name string) synth.Spec {
	s, err := synth.Lookup(name)
	if err != nil {
		panic(err)
	}
	return s
}

func benchRunner(b *testing.B, name string) *flow.Runner {
	b.Helper()
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = benchScale
	cfg.Placer.OuterIters = 6
	cfg.Placer.SolveSweeps = 10
	r, err := flow.NewRunner(context.Background(), benchSpec(name), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable2TestcaseGeneration measures the synthetic netlist
// generator behind Table II.
func BenchmarkTable2TestcaseGeneration(b *testing.B) {
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = benchScale
	spec := benchSpec("des3_210")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(tc, lib, spec, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4PostPlacementFlows runs all five Table III flows
// post-placement (the Table IV workload).
func BenchmarkTable4PostPlacementFlows(b *testing.B) {
	r := benchRunner(b, "aes_360")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunAll(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5PostRouteFlows runs the four routed flows of Table V.
func BenchmarkTable5PostRouteFlows(b *testing.B) {
	r := benchRunner(b, "aes_360")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range []flow.ID{flow.Flow1, flow.Flow2, flow.Flow4, flow.Flow5} {
			if _, err := r.Run(context.Background(), id, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4aSweepS sweeps the clustering resolution through the Flow 4
// pipeline (the Fig. 4(a) workload).
func BenchmarkFig4aSweepS(b *testing.B) {
	r := benchRunner(b, "aes_360")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []float64{0.1, 0.2, 0.5} {
			r.Cfg.Core.S = s
			if _, err := r.Run(context.Background(), flow.Flow4, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4bSweepAlpha sweeps the cost weight α (the Fig. 4(b)
// workload).
func BenchmarkFig4bSweepAlpha(b *testing.B) {
	r := benchRunner(b, "aes_360")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range []float64{0, 0.5, 1.0} {
			r.Cfg.Core.Cost.Alpha = a
			if _, err := r.Run(context.Background(), flow.Flow4, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5ILPRuntimeScaling measures one ILP row-assignment solve (one
// point of Fig. 5).
func BenchmarkFig5ILPRuntimeScaling(b *testing.B) {
	r := benchRunner(b, "des3_210")
	d := r.Base.Clone()
	cl, err := core.BuildClusters(context.Background(), d, 0.2, 30)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildModel(context.Background(), d, r.Grid, cl, r.NminR, core.DefaultCostParams())
	if err != nil {
		b.Fatal(err)
	}
	opts := core.DefaultOptions().Solve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(context.Background(), m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClustering compares the unclustered (s=1) and clustered
// (s=0.2) ILP solves (§IV-B.4).
func BenchmarkAblationClustering(b *testing.B) {
	r := benchRunner(b, "aes_300")
	for _, s := range []float64{1.0, 0.2} {
		b.Run(map[float64]string{1.0: "unclustered", 0.2: "s=0.2"}[s], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Cfg.Core.S = s
				if _, err := r.Run(context.Background(), flow.Flow4, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate microbenchmarks ---

func BenchmarkGlobalPlacer(b *testing.B) {
	tc := tech.Default()
	lib := celllib.New(tc)
	opt := synth.DefaultOptions()
	opt.Scale = benchScale
	d, err := synth.Generate(tc, lib, benchSpec("jpeg_300"), opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		placer.Global(d, placer.Options{OuterIters: 8, SolveSweeps: 12})
	}
}

func BenchmarkAbacusLegalization(b *testing.B) {
	r := benchRunner(b, "jpeg_300")
	base := r.Base
	g := r.Grid
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := base.Clone()
		if err := legalize.Uniform(d, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGlobalRouter(b *testing.B) {
	r := benchRunner(b, "aes_360")
	res, err := r.Run(context.Background(), flow.Flow5, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Route(res.Design, route.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTA(b *testing.B) {
	r := benchRunner(b, "aes_360")
	res, err := r.Run(context.Background(), flow.Flow5, false)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := route.Route(res.Design, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Analyze(res.Design, sta.Options{NetLength: rt.NetLength}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowerAnalysis(b *testing.B) {
	r := benchRunner(b, "aes_360")
	res, err := r.Run(context.Background(), flow.Flow5, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.Analyze(res.Design, power.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeans2D(b *testing.B) {
	pts := make([]cluster.Point2, 2000)
	for i := range pts {
		pts[i] = cluster.Point2{X: float64(i*131%9973) / 9973, Y: float64(i*197%9967) / 9967}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.KMeans2D(context.Background(), pts, 400, 30)
	}
}

func BenchmarkMixedStackRestack(b *testing.B) {
	tc := tech.Default()
	die := rowgridDie(tc, 200)
	hs := make([]tech.TrackHeight, 200)
	for i := 0; i < 40; i++ {
		hs[i*5] = tech.Tall7p5T
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rowgrid.Stack(die, hs, tc); err != nil {
			b.Fatal(err)
		}
	}
}

func rowgridDie(tc *tech.Tech, pairs int) geom.Rect {
	h := int64(pairs)*tc.PairHeight(tech.Short6T) + 40*(tc.PairHeight(tech.Tall7p5T)-tc.PairHeight(tech.Short6T))
	return geom.NewRect(0, 0, 100000, h)
}
