package scheduler

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringVnodes is the number of ring points per backend. 64 keeps the load
// spread within a few percent of uniform while the ring stays tiny.
const ringVnodes = 64

// ring consistent-hashes routing keys onto backend indices. With one
// backend everything maps to it; with more, each key deterministically owns
// a lane, and adding a backend moves only ~1/n of the keyspace — the
// property that will keep cache affinity through future elastic resizing.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int
}

func newRing(backends int) *ring {
	r := &ring{points: make([]ringPoint, 0, backends*ringVnodes)}
	for i := 0; i < backends; i++ {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("backend-%d/vnode-%d", i, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// pick returns the backend index owning key: the first ring point at or
// clockwise-after the key's hash.
func (r *ring) pick(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].idx
}

// pickLive returns the backend index owning key among the lanes live
// reports healthy, walking clockwise from the key's home point so a dead
// lane's keyspace spills onto its ring successor (and comes back home when
// the lane is readmitted). exclude skips one lane regardless of health —
// re-routing a job away from the lane that just failed it. When no lane
// qualifies, the unfiltered owner is returned with ok=false.
func (r *ring) pickLive(key string, exclude int, live func(int) bool) (idx int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	seen := map[int]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.idx] {
			continue
		}
		seen[p.idx] = true
		if p.idx != exclude && live(p.idx) {
			return p.idx, true
		}
	}
	return r.points[start].idx, false
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
