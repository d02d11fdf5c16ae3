package core

import (
	"context"
	"testing"
)

// BenchmarkBuildModel measures the serial RAP cost-model build on one
// clustered design; the interesting numbers are allocations and wall clock.
func BenchmarkBuildModel(b *testing.B) {
	d, g := placedDesign(b, 0.05)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		b.Fatal(err)
	}
	ctx, nMinR := ctxWithJobs(1), nMinRFor(d, g)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildModel(ctx, d, g, cl, nMinR, DefaultCostParams()); err != nil {
			b.Fatal(err)
		}
	}
}
