// Package fleet makes tricheckd horizontally scalable: a coordinator
// consistent-hashes the sweep's content-addressed memo keys
// (core.JobKeyBackend — the Key field of every verdict record) across N
// worker tricheckds, fans one /v1/verify request out as per-shard
// sub-requests carrying key allowlists, and merges the worker NDJSON
// streams back into one wire-compatible stream.
//
// Robustness is part of the perf story ("The Tail at Scale"): workers
// are health-probed, a slow or dead worker's remaining jobs are hedged
// to the next ring node — memoization makes duplicate execution free,
// and the merger deduplicates by memo key — and cache slices are
// rebalanced to (re)joining workers from farm.Cache snapshot slices so
// they start warm.
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per worker. 64 vnodes keep
// the per-worker share of a sweep within a few percent of even for
// small fleets while the ring stays tiny (hundreds of points).
const DefaultVnodes = 64

// Ring is a consistent-hash ring over worker URLs. Keys map to the
// first ring point clockwise of their hash; adding or removing a worker
// moves only the keys in the affected arcs, so a warm fleet keeps most
// of its cache locality across membership changes.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, deduplicated
}

type ringPoint struct {
	hash uint64
	node string
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NewRing builds a ring over nodes with the given virtual-node count
// per node (0 = DefaultVnodes). Node order is irrelevant: the ring is a
// pure function of the membership set, so a coordinator and a worker
// reconstructing the ring from a URL list agree on every key's owner.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hashKey(n + "#" + strconv.Itoa(v)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare with 64-bit FNV) break on node name so
		// the ring stays a pure function of the membership set.
		return r.points[i].node < r.points[j].node
	})
	sort.Strings(r.nodes)
	return r
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// search returns the index of the first ring point clockwise of h.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the worker owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hashKey(key))].node
}

// Successor returns the next distinct worker clockwise of key's owner,
// skipping members of exclude — the hedging target when the owner is
// slow or dead. It returns "" when every other worker is excluded.
func (r *Ring) Successor(key string, exclude map[string]bool) string {
	if len(r.points) == 0 {
		return ""
	}
	start := r.search(hashKey(key))
	owner := r.points[start].node
	for i := 1; i <= len(r.points); i++ {
		n := r.points[(start+i)%len(r.points)].node
		if n != owner && !exclude[n] {
			return n
		}
	}
	return ""
}
