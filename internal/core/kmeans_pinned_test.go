package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/cluster"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/rowgrid"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// runnerBase prepares a design the way flow.NewRunner does — synthesis,
// mLEF, default global placement, uniform legalization — which is the
// placement the ILP flows cluster.
func runnerBase(t testing.TB, name string, scale float64) *netlist.Design {
	t.Helper()
	var sp synth.Spec
	found := false
	for _, s := range synth.TableII() {
		if s.Name() == name {
			sp, found = s, true
		}
	}
	if !found {
		t.Fatalf("no Table II spec %s", name)
	}
	if scale < 0 {
		scale = sp.ScaleForCells(int(-scale))
	}
	tc := tech.Default()
	opt := synth.DefaultOptions()
	opt.Scale = scale
	d, err := synth.Generate(tc, celllib.New(tc), sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lefdef.ApplyMLEF(d)
	if err != nil {
		t.Fatal(err)
	}
	placer.Global(d, placer.Options{})
	if err := legalize.Uniform(d, rowgrid.Uniform(d.Die, m.PairH)); err != nil {
		t.Fatal(err)
	}
	return d
}

// kmeansDigest is the FNV-64a digest of a clustering: every assignment,
// the bits of every centroid coordinate, every size and the iteration
// count, each as 8 little-endian bytes.
func kmeansDigest(r *cluster.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, a := range r.Assign {
		put(uint64(a))
	}
	for _, c := range r.Centroids {
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
	}
	for _, s := range r.Sizes {
		put(uint64(s))
	}
	put(uint64(r.Iterations))
	return h.Sum64()
}

// TestKMeansPinnedDigests pins KMeans2D's exact output on the samples
// BuildClusters feeds it with the default options (s = 0.2, 30 Lloyd
// iterations). Any change to the k-means kernel that moves one assignment
// or one centroid bit fails here. A negative scale means a cell count.
func TestKMeansPinnedDigests(t *testing.T) {
	cases := []struct {
		spec   string
		scale  float64
		long   bool
		digest uint64
	}{
		{"aes_300", 0.03, false, 0x510de841cc05c6cc},
		{"jpeg_300", 0.03, false, 0xb64badea0a57e99a},
		{"nova_300", 0.03, false, 0x65de5fc6c37bb704},
		{"nova_300", -20_000, false, 0x8ba621b593751f71},
		{"nova_300", -200_000, true, 0xb96e43cd46d3db93},
	}
	opt := DefaultOptions()
	for _, c := range cases {
		if c.long && testing.Short() {
			continue
		}
		d := runnerBase(t, c.spec, c.scale)
		minority := d.MinorityInstances()
		pts, nC, _ := clusterInput(d, minority, opt.S)
		res := cluster.KMeans2D(context.Background(), pts, nC, 30)
		if got := kmeansDigest(res); got != c.digest {
			t.Errorf("%s scale %g (%d samples, k=%d, %d iterations): k-means digest %#016x, want %#016x",
				c.spec, c.scale, len(pts), nC, res.Iterations, got, c.digest)
		}
	}
}
