package placer

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/par"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// positionDigest is the FNV-64a digest of every instance's lower-left
// position in instance order (X then Y, 8 little-endian bytes each).
func positionDigest(d *netlist.Design) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, in := range d.Insts {
		binary.LittleEndian.PutUint64(b[:], uint64(in.Pos.X))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(in.Pos.Y))
		h.Write(b[:])
	}
	return h.Sum64()
}

func specNamed(t testing.TB, name string) synth.Spec {
	t.Helper()
	for _, sp := range synth.TableII() {
		if sp.Name() == name {
			return sp
		}
	}
	t.Fatalf("no Table II spec %s", name)
	return synth.Spec{}
}

// placeSpec prepares a design the way flow.NewRunner does before global
// placement (synthesis, then mLEF) and places it with default options on
// the given pool.
func placeSpec(t testing.TB, sp synth.Spec, scale float64, seed int64, pool *par.Pool) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	so := synth.DefaultOptions()
	so.Scale = scale
	so.Seed = seed
	d, err := synth.Generate(tc, lib, sp, so)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lefdef.ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	Global(d, Options{Pool: pool})
	return d
}

// TestGlobalPinnedDigests pins the exact output of Global with default
// options. The golden corpus only covers scale 0.02; these cases add the
// scale of the paper matrix and a 20k-cell design, whose deeper bisection
// trees exercise far more splits. Any change to the placer that moves one
// cell by one DBU fails here, at the default pool, a serial one and a
// 4-worker one.
func TestGlobalPinnedDigests(t *testing.T) {
	nova := specNamed(t, "nova_300")
	cases := []struct {
		spec   string
		scale  float64
		seed   int64
		digest uint64
	}{
		{"aes_300", 0.03, 1, 0x176576b698ec80ed},
		{"aes_300", 0.03, 2, 0x3226b5b9c4952bf4},
		{"jpeg_300", 0.03, 1, 0x9c2e34e0d7b19e97},
		{"jpeg_300", 0.03, 2, 0x48c534e8ca30574f},
		{"swerv_550", 0.03, 1, 0x9a9cdde1642a578b},
		{"swerv_550", 0.03, 2, 0x8fdd0a52bd637d47},
		{"nova_300", nova.ScaleForCells(20_000), 1, 0xee5202ad63636ce4},
	}
	pools := []struct {
		name string
		pool *par.Pool
	}{{"default", nil}, {"jobs1", par.NewPool(1)}, {"jobs4", par.NewPool(4)}}
	for _, p := range pools {
		t.Run(p.name, func(t *testing.T) {
			for _, c := range cases {
				d := placeSpec(t, specNamed(t, c.spec), c.scale, c.seed, p.pool)
				if got := positionDigest(d); got != c.digest {
					t.Errorf("%s scale %g seed %d (%d cells): position digest %#016x, want %#016x",
						c.spec, c.scale, c.seed, len(d.Insts), got, c.digest)
				}
			}
		})
	}
}
