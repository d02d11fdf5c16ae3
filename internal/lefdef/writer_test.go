package lefdef_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/flow"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

// TestWriterOutputPinned pins the exact bytes the LEF and DEF writers emit,
// as FNV-64a digests: the full library in LEF, the mixed-height aes_300
// design after Flow (5) in DEF, and the same design in mLEF form with every
// 16th instance fixed, so the FIXED status is pinned too (no generated
// design has fixed cells). The Flow (5) digest is the golden corpus's
// aes_300 flow5 entry. The DEF header counts must match the design and the
// records that follow them.
func TestWriterOutputPinned(t *testing.T) {
	tc := tech.Default()
	lib := celllib.New(tc)
	var lef bytes.Buffer
	if err := lefdef.WriteLEF(&lef, tc, lib.Masters()); err != nil {
		t.Fatal(err)
	}

	var spec synth.Spec
	for _, s := range synth.TableII() {
		if s.Name() == "aes_300" {
			spec = s
		}
	}
	cfg := flow.DefaultConfig()
	cfg.Synth.Scale = 0.02
	ctx := context.Background()
	r, err := flow.NewRunner(ctx, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(ctx, flow.Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Design
	mixed := writeDEF(t, d)
	if _, err := lefdef.ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(d.Insts); i += 16 {
		d.Insts[i].Fixed = true
	}
	mlef := writeDEF(t, d)

	for _, c := range []struct {
		name string
		out  []byte
		want string
	}{
		{"lef", lef.Bytes(), "11d4f1bd3b12e02c"},
		{"def", mixed, "07c23d94afc3fb13"},
		{"def-mlef", mlef, "658f817b5ff79ad0"},
	} {
		h := fnv.New64a()
		h.Write(c.out)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
	if !bytes.Contains(mlef, []byte(" + FIXED ( ")) || !bytes.Contains(mixed, []byte(" + USE CLOCK ;")) {
		t.Error("pinned DEF lacks a FIXED component or the clock net")
	}
}

// writeDEF writes d and checks each section header's count against the
// design and against the records in that section.
func writeDEF(t *testing.T, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lefdef.WriteDEF(&buf, d); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"COMPONENTS": len(d.Insts), "PINS": len(d.Ports), "NETS": len(d.Nets)}
	var section string
	var records int
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[2] == ";" {
			if n, ok := want[f[0]]; ok {
				if f[1] != strconv.Itoa(n) {
					t.Errorf("%s header count %s, design has %d", f[0], f[1], n)
				}
				section, records = f[0], 0
				continue
			}
		}
		if section == "" {
			continue
		}
		if strings.HasPrefix(line, "- ") {
			records++
		} else if line == "END "+section {
			if records != want[section] {
				t.Errorf("%s section holds %d records, header says %d", section, records, want[section])
			}
			delete(want, section)
			section = ""
		}
	}
	if len(want) != 0 {
		t.Errorf("DEF lacks sections %v", want)
	}
	return buf.Bytes()
}
