package route

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"mthplace/internal/synth"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json")

// goldenCase is one routed design pinned by testdata/golden.json.
type goldenCase struct {
	Name string `json:"name"`
	// Spec indexes synth.TableII().
	Spec  int     `json:"spec"`
	Scale float64 `json:"scale"`
	// Tracks, when non-zero, overrides both per-gcell track capacities to
	// congest the grid so that rip-up and the maze search run.
	Tracks int     `json:"tracks,omitempty"`
	Opt    Options `json:"options"`

	WirelengthDBU int64   `json:"wirelength_dbu"`
	Overflow      int     `json:"overflow"`
	MaxCongestion float64 `json:"max_congestion"`
	// NetLengthFNV is the FNV-64a digest of every NetLength entry in net
	// order (8 little-endian bytes each).
	NetLengthFNV uint64 `json:"net_length_fnv64a"`
}

func netLengthDigest(nl []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range nl {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenInputs are the designs the golden file records. The congested
// cases cut the track capacity as TestRouteCongestionRelief does; the last
// one also bounds the maze so that some searches hit the limit and fall
// back to pattern routing.
var goldenInputs = []goldenCase{
	{Name: "aes_300", Spec: 0, Scale: 0.02},
	{Name: "ldpc_300", Spec: 5, Scale: 0.02},
	{Name: "jpeg_350", Spec: 9, Scale: 0.02},
	{Name: "aes_300_congested", Spec: 0, Scale: 0.02, Tracks: 2, Opt: Options{RipupPasses: 4, CongestionPenalty: 8}},
	{Name: "aes_360_congested_limited", Spec: 3, Scale: 0.02, Tracks: 3, Opt: Options{MazeLimit: 8}},
}

func routeGoldenCase(t *testing.T, in goldenCase) goldenCase {
	t.Helper()
	d := placedSpec(t, synth.TableII()[in.Spec], in.Scale)
	if in.Tracks > 0 {
		d.Tech.HTracksPerGCell = in.Tracks
		d.Tech.VTracksPerGCell = in.Tracks
	}
	res, err := Route(d, in.Opt)
	if err != nil {
		t.Fatal(err)
	}
	out := in
	out.WirelengthDBU = res.WirelengthDBU
	out.Overflow = res.Overflow
	out.MaxCongestion = res.MaxCongestion
	out.NetLengthFNV = netLengthDigest(res.NetLength)
	return out
}

// TestRouteGolden pins the router's output on placed designs exactly: any
// change to routed wirelength, overflow, congestion or a single net's
// routed length fails it. Regenerate with `go test -run TestRouteGolden
// -update` only for an intended change of routes.
func TestRouteGolden(t *testing.T) {
	path := filepath.Join("testdata", "golden.json")
	got := make([]goldenCase, len(goldenInputs))
	for i, in := range goldenInputs {
		got[i] = routeGoldenCase(t, in)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, test routes %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %s:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}
