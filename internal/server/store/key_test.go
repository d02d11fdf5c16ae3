package store

import (
	"encoding/json"
	"fmt"
	"testing"

	"mthplace/internal/synth"
)

func baseInstance() Instance {
	return Instance{
		Testcase:    "aes_300",
		Scale:       1,
		Seed:        1,
		FencePasses: 3,
		Solver:      "rap",
		Flow:        5,
	}
}

// TestKeyDeterministic: hashing the same instance twice — and a copy built
// independently — yields byte-identical keys.
func TestKeyDeterministic(t *testing.T) {
	a := baseInstance()
	b := baseInstance()
	if a.Key() != a.Key() {
		t.Fatal("key of the same value is not stable")
	}
	if a.Key() != b.Key() {
		t.Fatalf("independently built equal instances hash differently: %s vs %s", a.Key(), b.Key())
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not a hex sha256", a.Key())
	}
}

// TestKeySensitivity: every identity field changes the key; equal values
// never collide with each other.
func TestKeySensitivity(t *testing.T) {
	base := baseInstance()
	seen := map[Key]string{base.Key(): "base"}
	variants := map[string]Instance{}

	v := base
	v.Testcase = "jpeg_700"
	variants["testcase"] = v
	v = base
	v.Testcase = ""
	v.Spec = &synth.Spec{Circuit: "aes_cipher_top", ClockPs: 1000, Cells: 300, MinorityPct: 7.5, Nets: 400}
	variants["inline spec"] = v
	v = base
	v.Scale = 0.5
	variants["scale"] = v
	v = base
	v.Seed = 2
	variants["seed"] = v
	v = base
	v.FencePasses = 4
	variants["fence passes"] = v
	v = base
	v.Solver = "greedy"
	variants["solver"] = v
	v = base
	v.Route = true
	variants["route"] = v
	v = base
	v.Flow = 4
	variants["flow"] = v

	for name, inst := range variants {
		k := inst.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestCanonicalJSONMapOrder: maps marshal with sorted keys regardless of
// insertion order or Go's randomized iteration, so any map-bearing value is
// safe to content-address. Exercised across many permutations to make a
// nondeterministic encoder overwhelmingly likely to trip.
func TestCanonicalJSONMapOrder(t *testing.T) {
	want, err := CanonicalJSON(map[string]int{"a": 1, "b": 2, "c": 3, "d": 4})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		m := map[string]int{}
		// Vary insertion order per trial.
		keys := []string{"a", "b", "c", "d"}
		for i := range keys {
			k := keys[(i+trial)%len(keys)]
			m[k] = int(k[0]-'a') + 1
		}
		got, err := CanonicalJSON(m)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: canonical encoding varies: %s vs %s", trial, got, want)
		}
	}
}

// TestCanonicalJSONRoundTrip: decode → re-encode is byte-stable for the
// Instance type, the property journal replay relies on.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	orig := baseInstance()
	b1, err := CanonicalJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Instance
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := CanonicalJSON(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round-trip not byte-stable:\n%s\n%s", b1, b2)
	}
	if orig.Key() != decoded.Key() {
		t.Fatalf("round-trip changed the key: %s vs %s", orig.Key(), decoded.Key())
	}
}

// TestKeySchemaMixedIn: the schema version participates in the hash, so a
// caller-supplied stale schema number cannot alias a current key.
func TestKeySchemaMixedIn(t *testing.T) {
	a := baseInstance()
	a.Schema = 0 // Key() overwrites with KeySchema
	b := baseInstance()
	b.Schema = 999 // also overwritten: Schema is not caller input
	if a.Key() != b.Key() {
		t.Fatal("Key() must normalize the schema field before hashing")
	}
	// And the schema constant genuinely lands in the encoding.
	enc, err := CanonicalJSON(Instance{Schema: KeySchema})
	if err != nil {
		t.Fatal(err)
	}
	if wantFrag := fmt.Sprintf(`"schema":%d`, KeySchema); !json.Valid(enc) || string(enc[:len(wantFrag)+1]) != "{"+wantFrag {
		t.Fatalf("encoding does not lead with the schema: %s", enc)
	}
}
