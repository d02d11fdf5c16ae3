package legalize_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/netlist"
	"mthplace/internal/synth"
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

// TestLegalizePinnedDigests pins the exact placements of the three
// legalizers on a 20k-cell nova_300 runner with the greedy solver: Uniform
// (the runner's base placement), RowConstraintAssigned (Flows 2 and 4) and
// FenceAware (Flows 3 and 5). The golden corpus only covers scale 0.02;
// dense 20k-cell rows exercise far longer Abacus merge chains. Any change
// that moves one cell by one DBU fails here.
func TestLegalizePinnedDigests(t *testing.T) {
	var sp synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == "nova_300" {
			sp = s
		}
	}
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = sp.ScaleForCells(20_000)
	cfg.Core.Solve.Backend = core.BackendGreedy
	ctx := context.Background()
	r, err := flow.NewRunner(ctx, sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := positionDigest(r.Base), uint64(0x7059b354f0f1c6dd); got != want {
		t.Errorf("Uniform (%d cells): position digest %#016x, want %#016x", len(r.Base.Insts), got, want)
	}
	want := map[flow.ID]uint64{
		flow.Flow2: 0x4114e3befc07acc3,
		flow.Flow3: 0xc66cbe9e2eccc2cd,
		flow.Flow4: 0x6fb22eedc1a5afb4,
		flow.Flow5: 0xbfb16aac6279053b,
	}
	for _, id := range []flow.ID{flow.Flow2, flow.Flow3, flow.Flow4, flow.Flow5} {
		res, err := r.Run(ctx, id, false)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if got := positionDigest(res.Design); got != want[id] {
			t.Errorf("%v: position digest %#016x, want %#016x", id, got, want[id])
		}
	}
}
