// Package store is the result layer of the job fabric (DESIGN.md §13): a
// bounded store of terminal job outcomes plus a content-addressed solve
// cache. The cache maps a canonical instance key — a hash over everything
// that determines a solve's output: the synthesis spec (netlist), the
// library/config knobs, and the flow — to the placement digest and metrics
// that solve produced, so heavy repeated traffic is served from memory
// instead of re-running the ILP.
//
// Canonicalization rules (the cache-key contract):
//
//   - Identity fields only. The key covers the testcase (or inline spec),
//     scale, seed, fence-pass count, solver backend, routing, and the flow
//     ID — every field that changes the bits of the result.
//   - Defaults are applied before hashing: scale 0 hashes as 1.0, seed 0 as
//     1, fence passes 0 as 3, an empty solver as the server's default. Two
//     requests that resolve to the same effective configuration share a key
//     regardless of which fields they spelled out.
//   - Execution-shape fields are excluded. Worker-pool bounds (jobs) and
//     deadlines (timeout_ms) do not enter the key: results are bit-identical
//     at any parallelism (DESIGN.md §7), and a deadline that did not fire
//     leaves no trace in the output. (Results that *were* degraded by a
//     budget are never cached — see Cache.)
//   - The encoding is canonical JSON: struct fields in declaration order,
//     map keys sorted (encoding/json guarantees both), no indentation. The
//     key is therefore byte-stable across request field reordering, map
//     iteration order, and journal marshal/unmarshal round-trips.
//   - Schema is versioned. KeySchema is mixed into every key; bumping it
//     invalidates all prior keys when the engine's output contract changes.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"mthplace/internal/synth"
)

// KeySchema versions the key layout and the engine output contract. Bump it
// whenever a change makes previously cached results stale (new metric
// fields, altered solver semantics, spec format changes).
const KeySchema = 1

// Key is a content address: the lowercase hex SHA-256 of an Instance's
// canonical JSON encoding.
type Key string

// Instance is the canonical identity of one solve: a single flow of a
// single testcase under a fully resolved configuration. Field order is part
// of the hash contract — append new fields, never reorder.
type Instance struct {
	// Schema is KeySchema at hash time.
	Schema int `json:"schema"`
	// Testcase names a Table II spec; empty when Spec is inline.
	Testcase string `json:"testcase,omitempty"`
	// Spec is the inline synthesis spec, mutually exclusive with Testcase.
	Spec *synth.Spec `json:"spec,omitempty"`
	// Scale is the effective cell-count multiplier (default applied).
	Scale float64 `json:"scale"`
	// Seed is the effective deterministic stream selector (default applied).
	Seed int64 `json:"seed"`
	// FencePasses is the effective legalization pass count (default applied).
	FencePasses int `json:"fence_passes"`
	// Solver is the effective RAP backend ("rap" or "greedy").
	Solver string `json:"solver"`
	// Route records whether post-route metrics are part of the result.
	Route bool `json:"route"`
	// Flow is the flow ID this key addresses (1..5).
	Flow int `json:"flow"`
}

// Key hashes the instance into its content address.
func (i Instance) Key() Key {
	i.Schema = KeySchema
	b, err := CanonicalJSON(i)
	if err != nil {
		// Instance holds only plain data; a marshal failure is a programming
		// error, not runtime input.
		panic(fmt.Sprintf("store: canonical encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return Key(hex.EncodeToString(sum[:]))
}

// CanonicalJSON returns the canonical encoding used for content addressing:
// encoding/json with struct fields in declaration order and map keys sorted
// lexicographically, no indentation, no trailing newline. The same value
// always yields the same bytes, independent of map iteration order or how
// the value was produced (decoded wire request, journal replay, literal).
func CanonicalJSON(v any) ([]byte, error) {
	return json.Marshal(v)
}
