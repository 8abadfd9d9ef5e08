package uhb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSkeleton builds a frozen skeleton over n nodes with 2n random
// edges. An acyclic one orients every edge along a hidden random
// permutation, so its topological orders are not the identity; a cyclic
// one adds arbitrary edges plus a guaranteed back edge.
func randomSkeleton(rng *rand.Rand, n int, cyclic bool) (*Skeleton, [][2]int) {
	rank := rng.Perm(n)
	s := NewSkeleton(n)
	var edges [][2]int
	add := func(from, to int) {
		s.AddEdge(from, to, uint32(len(edges)))
		edges = append(edges, [2]int{from, to})
	}
	for i := 0; i < 2*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if !cyclic {
			if from == to {
				continue
			}
			if rank[from] > rank[to] {
				from, to = to, from
			}
		}
		add(from, to)
	}
	if cyclic {
		a, b := rng.Intn(n), rng.Intn(n)
		add(a, b)
		add(b, a)
	}
	s.Freeze()
	return s, edges
}

// linearExtension returns a random topological order of an acyclic
// edge set over n nodes as a rank per node, or nil if the set is cyclic.
func linearExtension(rng *rand.Rand, n int, edges [][2]int) []int {
	indeg := make([]int, n)
	for _, e := range edges {
		indeg[e[1]]++
	}
	var ready []int
	for v := range n {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	rank := make([]int, n)
	placed := 0
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		v := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		rank[v] = placed
		placed++
		for _, e := range edges {
			if e[0] == v {
				indeg[e[1]]--
				if indeg[e[1]] == 0 {
					ready = append(ready, e[1])
				}
			}
		}
	}
	if placed < n {
		return nil
	}
	return rank
}

// orderValid reports whether the overlay's carried order is a
// permutation that every skeleton and dynamic edge respects.
func orderValid(o *Overlay, static, dyn [][2]int) bool {
	for i, v := range o.ord {
		if int(o.pos[v]) != i {
			return false
		}
	}
	for _, es := range [][][2]int{static, dyn} {
		for _, e := range es {
			if o.pos[e[0]] >= o.pos[e[1]] {
				return false
			}
		}
	}
	return true
}

// TestQuickIncrMatchesFullDFS: the incremental order repair agrees with
// the full DFS. One pooled overlay runs long sequences of Reset+AddEdge
// over a random skeleton (acyclic or cyclic), so HasCycle's topological
// order carries over between candidates. Dynamic edges mostly follow a fresh random linear
// extension of the skeleton per candidate, forcing reorders, mixed with
// arbitrary edges, duplicate records and self-loops. Every verdict must
// agree with the full DFS of HasCycleReasons and with Graph.Acyclic of
// the materialized union, and after every acyclic verdict the carried
// order must be a valid order of skeleton + overlay.
func TestQuickIncrMatchesFullDFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s, static := randomSkeleton(rng, n, rng.Intn(4) == 0)
		ov := AcquireOverlay(s)
		defer ReleaseOverlay(ov)
		for cand := 0; cand < 40; cand++ {
			ov.Reset(s)
			rank := linearExtension(rng, n, static)
			var dyn [][2]int
			for i, m := 0, rng.Intn(3*n); i < m; i++ {
				from, to := rng.Intn(n), rng.Intn(n)
				switch k := rng.Intn(20); {
				case k == 0:
					to = from // self-loop
				case k <= 2 && len(dyn) > 0:
					e := dyn[rng.Intn(len(dyn))] // duplicate record
					from, to = e[0], e[1]
				case k == 3:
					// arbitrary edge, may close a cycle
				case rank != nil:
					if from == to {
						continue
					}
					if rank[from] > rank[to] {
						from, to = to, from
					}
				}
				ov.AddEdge(from, to, uint32(1000+i))
				dyn = append(dyn, [2]int{from, to})
			}
			g := NewGraph(n)
			for _, es := range [][][2]int{static, dyn} {
				for _, e := range es {
					g.AddEdge(e[0], e[1], "e")
				}
			}
			want := !g.Acyclic()
			if ov.HasCycle() != want || ov.HasCycle() != want {
				t.Logf("seed %d candidate %d: HasCycle != %v", seed, cand, want)
				return false
			}
			reasons, viaDFS := ov.HasCycleReasons(nil)
			if viaDFS != want || (len(reasons) > 0) != want {
				t.Logf("seed %d candidate %d: HasCycleReasons = %v, %v", seed, cand, reasons, viaDFS)
				return false
			}
			if !want && !orderValid(ov, static, dyn) {
				t.Logf("seed %d candidate %d: carried order invalid", seed, cand)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIncrSyncMatchesOverlay: across a sequence of Resets with
// random edge sets over one skeleton — the per-candidate shape of an
// enumeration sweep — HasCycle is called after every AddEdge, so the
// order is repaired step by step within a candidate as well as carried
// between candidates. Each verdict must equal HasCycleReasons and the
// verdict of a fresh overlay (no carried order) holding the same edges,
// must never go from cyclic back to acyclic within a candidate, and a
// cyclic verdict must come with a non-empty reason multiset.
func TestQuickIncrSyncMatchesOverlay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s, _ := randomSkeleton(rng, n, rng.Intn(4) == 0)
		ov := AcquireOverlay(s)
		defer ReleaseOverlay(ov)
		for cand := 0; cand < 12; cand++ {
			ov.Reset(s)
			fresh := NewOverlay(s)
			cyclic := ov.HasCycle()
			for i, m := 0, rng.Intn(3*n); i < m; i++ {
				from, to := rng.Intn(n), rng.Intn(n)
				ov.AddEdge(from, to, uint32(1000+i))
				fresh.AddEdge(from, to, uint32(1000+i))
				got := ov.HasCycle()
				if cyclic && !got {
					t.Logf("seed %d candidate %d edge %d: cyclic verdict withdrawn", seed, cand, i)
					return false
				}
				cyclic = got
				reasons, want := ov.HasCycleReasons(nil)
				if got != want || (len(reasons) > 0) != want {
					t.Logf("seed %d candidate %d edge %d: HasCycle = %v, HasCycleReasons = %v, %v", seed, cand, i, got, reasons, want)
					return false
				}
			}
			if fresh.HasCycle() != cyclic {
				t.Logf("seed %d candidate %d: carried-order verdict %v differs from a fresh overlay", seed, cand, cyclic)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayStaleOrderOnRebind: an overlay bound to one skeleton and
// then to another with the same node count must recompute its order —
// whether it is rebound by Reset or recycled through the pool. The two
// skeletons are opposite chains, so an order carried from one makes
// every edge of the other look backward and vice versa.
func TestOverlayStaleOrderOnRebind(t *testing.T) {
	const n = 6
	up, down := NewSkeleton(n), NewSkeleton(n)
	for i := 0; i+1 < n; i++ {
		up.AddEdge(i, i+1, 0)
		down.AddEdge(i+1, i, 0)
	}
	up.Freeze()
	down.Freeze()

	check := func(o *Overlay, from, to int, want bool) {
		t.Helper()
		o.AddEdge(from, to, 1)
		if got := o.HasCycle(); got != want {
			t.Fatalf("edge %d→%d: HasCycle = %v, want %v", from, to, got, want)
		}
	}
	o := AcquireOverlay(up)
	check(o, 0, n-1, false)
	o.Reset(down)
	check(o, 0, n-1, true)
	o.Reset(down)
	check(o, n-1, 0, false)
	o.Reset(up)
	check(o, n-1, 0, true)
	ReleaseOverlay(o)

	// Recycled through the pool: whichever overlay comes back, its order
	// for the up chain must not survive.
	o = AcquireOverlay(down)
	check(o, 0, n-1, true)
	ReleaseOverlay(o)
}

// TestOverlaySelfLoopAndCyclicSkeleton: degenerate inputs — a dynamic
// self-loop is cyclic and gone after Reset; a cyclic skeleton pins every
// verdict to cyclic, even with no dynamic edges, until the overlay is
// rebound to an acyclic one.
func TestOverlaySelfLoopAndCyclicSkeleton(t *testing.T) {
	s := NewSkeleton(3)
	s.AddEdge(0, 1, 0)
	s.Freeze()
	o := NewOverlay(s)
	if o.HasCycle() {
		t.Fatal("empty overlay on an acyclic skeleton reports a cycle")
	}
	o.AddEdge(2, 2, 0)
	if !o.HasCycle() {
		t.Fatal("self-loop not reported cyclic")
	}
	o.Reset(s)
	if o.HasCycle() {
		t.Fatal("self-loop survived Reset")
	}

	cyc := NewSkeleton(3)
	cyc.AddEdge(0, 1, 0)
	cyc.AddEdge(1, 0, 0)
	cyc.Freeze()
	o.Reset(cyc)
	if !o.HasCycle() {
		t.Fatal("cyclic skeleton not reported cyclic")
	}
	o.AddEdge(2, 0, 0)
	if !o.HasCycle() {
		t.Fatal("cyclic skeleton with a dynamic edge not reported cyclic")
	}
	o.Reset(s)
	o.AddEdge(1, 2, 0)
	if o.HasCycle() {
		t.Fatal("cyclic verdict leaked into the rebound acyclic skeleton")
	}
}

// TestOverlayUseAfterReleasePanics: the pool invalidates a released
// overlay by dropping its skeleton binding; any further use must panic
// rather than corrupt a pooled buffer another worker may now own.
func TestOverlayUseAfterReleasePanics(t *testing.T) {
	s := NewSkeleton(2)
	s.AddEdge(0, 1, 0)
	s.Freeze()
	o := AcquireOverlay(s)
	ReleaseOverlay(o)
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after ReleaseOverlay did not panic")
		}
	}()
	o.AddEdge(0, 1, 1)
}
