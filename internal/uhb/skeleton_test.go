package uhb

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSkeletonCSRAndDedup(t *testing.T) {
	s := NewSkeleton(4)
	s.AddEdge(0, 1, 7)
	s.AddEdge(0, 1, 9) // duplicate: first reason wins
	s.AddEdge(2, 3, 1)
	s.AddEdge(0, 2, 5)
	s.Freeze()
	if s.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", s.NumEdges())
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 3}} {
		if _, ok := s.Reason(e[0], e[1]); !ok {
			t.Fatalf("missing edge %v after freeze", e)
		}
	}
	if _, ok := s.Reason(1, 0); ok {
		t.Fatal("phantom edge")
	}
	if r, ok := s.Reason(0, 1); !ok || r != 7 {
		t.Fatalf("Reason(0,1) = %d,%v, want 7,true", r, ok)
	}
	var got [][3]int
	s.ForEachEdge(func(from, to int, reason uint32) {
		got = append(got, [3]int{from, to, int(reason)})
	})
	want := [][3]int{{0, 1, 7}, {0, 2, 5}, {2, 3, 1}}
	if len(got) != len(want) {
		t.Fatalf("ForEachEdge visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEachEdge visited %v, want %v", got, want)
		}
	}
}

func TestOverlayCycleAcrossTiers(t *testing.T) {
	// Static chain 0→1→2; the overlay's back edge 2→0 closes the cycle.
	s := NewSkeleton(3)
	s.AddEdge(0, 1, 0)
	s.AddEdge(1, 2, 0)
	s.Freeze()
	o := NewOverlay(s)
	if o.HasCycle() {
		t.Fatal("static chain must be acyclic")
	}
	o.AddEdge(2, 0, 1)
	if !o.HasCycle() {
		t.Fatal("overlay back edge must close the cycle")
	}
	o.Reset(s)
	if o.HasCycle() {
		t.Fatal("reset must drop dynamic edges")
	}
	o.AddEdge(2, 2, 1) // self-loop
	if !o.HasCycle() {
		t.Fatal("dynamic self-loop must be cyclic")
	}
}

// TestOverlayHasEdgeBothTiers: an overlay keeps the tiers apart. Static
// edges are read through its skeleton, dynamic ones (with their reason
// codes) through ForEachDynamicEdge.
func TestOverlayHasEdgeBothTiers(t *testing.T) {
	s := NewSkeleton(3)
	s.AddEdge(0, 1, 0)
	s.Freeze()
	o := NewOverlay(s)
	o.AddEdge(1, 2, 3)
	if r, ok := o.skel.Reason(0, 1); !ok || r != 0 {
		t.Errorf("static edge through the overlay's skeleton = %d,%v, want 0,true", r, ok)
	}
	if _, ok := o.skel.Reason(1, 2); ok {
		t.Error("dynamic edge leaked into the skeleton")
	}
	var dyn [][3]int
	o.ForEachDynamicEdge(func(from, to int, reason uint32) {
		dyn = append(dyn, [3]int{from, to, int(reason)})
	})
	if len(dyn) != 1 || dyn[0] != [3]int{1, 2, 3} {
		t.Errorf("dynamic edges = %v, want [[1 2 3]]", dyn)
	}
}

// TestOverlayCycleReasons: the provenance variant returns the reason
// codes of the witnessing cycle — both tiers contribute, duplicates are
// preserved, and repeated calls with a reused buffer neither allocate
// nor disagree with HasCycle.
func TestOverlayCycleReasons(t *testing.T) {
	// Static chain 0→1→2 (reasons 10, 11); dynamic back edge 2→0
	// (reason 12) closes the only cycle. Node 3 dangles off the cycle so
	// the DFS has a non-cycle frame below the loop.
	s := NewSkeleton(4)
	s.AddEdge(0, 1, 10)
	s.AddEdge(1, 2, 11)
	s.AddEdge(0, 3, 99)
	s.Freeze()
	o := NewOverlay(s)

	reasons, cyclic := o.HasCycleReasons(nil)
	if cyclic || len(reasons) != 0 {
		t.Fatalf("acyclic graph reported cycle %v", reasons)
	}

	o.AddEdge(2, 0, 12)
	buf := make([]uint32, 0, 8)
	reasons, cyclic = o.HasCycleReasons(buf)
	if !cyclic {
		t.Fatal("cycle missed")
	}
	// The DFS enters the cycle at node 0, so the reasons arrive in edge
	// order around the loop: 0→1, 1→2, then the closing 2→0.
	want := []uint32{10, 11, 12}
	if len(reasons) != len(want) {
		t.Fatalf("cycle reasons = %v, want %v", reasons, want)
	}
	for i := range want {
		if reasons[i] != want[i] {
			t.Fatalf("cycle reasons = %v, want %v", reasons, want)
		}
	}

	// Self-loop: the cycle is a single edge; only its reason appears.
	o.Reset(s)
	o.AddEdge(2, 2, 7)
	reasons, cyclic = o.HasCycleReasons(reasons[:0])
	if !cyclic || len(reasons) != 1 || reasons[0] != 7 {
		t.Fatalf("self-loop reasons = %v (cyclic=%v), want [7]", reasons, cyclic)
	}

	// Duplicate reason codes on distinct edges stay a multiset.
	o.Reset(s)
	o.AddEdge(2, 1, 11) // same code as static 1→2
	reasons, cyclic = o.HasCycleReasons(reasons[:0])
	if !cyclic || len(reasons) != 2 || reasons[0] != 11 || reasons[1] != 11 {
		t.Fatalf("duplicate-code cycle reasons = %v (cyclic=%v), want [11 11]", reasons, cyclic)
	}

	// Steady state with a pre-grown buffer is allocation-free, and the
	// provenance path agrees with the plain check.
	o.Reset(s)
	o.AddEdge(2, 0, 12)
	allocs := testing.AllocsPerRun(100, func() {
		r, c := o.HasCycleReasons(reasons[:0])
		if !c || len(r) != 3 {
			t.Fatal("cycle lost under reuse")
		}
		reasons = r
	})
	if allocs != 0 {
		t.Errorf("HasCycleReasons allocates %.1f/op with reused buffer, want 0", allocs)
	}
	if !o.HasCycle() {
		t.Fatal("HasCycle disagrees with HasCycleReasons")
	}
}

// TestQuickOverlayCycleReasonsAgree: on random two-tier graphs the
// provenance check and the plain check always agree, and any reported
// reason multiset is non-empty exactly when a cycle exists.
func TestQuickOverlayCycleReasonsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		s := NewSkeleton(n)
		var dyn [][2]int
		for i := 0; i < 3*n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.AddEdge(from, to, uint32(i))
			} else {
				dyn = append(dyn, [2]int{from, to})
			}
		}
		s.Freeze()
		o := AcquireOverlay(s)
		defer ReleaseOverlay(o)
		for i, e := range dyn {
			o.AddEdge(e[0], e[1], uint32(1000+i))
		}
		reasons, cyclic := o.HasCycleReasons(nil)
		return cyclic == o.HasCycle() && (len(reasons) > 0) == cyclic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOverlayMatchesGraph: splitting a random edge set arbitrarily
// into static and dynamic tiers never changes acyclicity — the two-tier
// verdict always equals the single-graph verdict over the union.
func TestQuickOverlayMatchesGraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		type edge struct{ from, to int }
		var edges []edge
		for i := 0; i < 3*n; i++ {
			edges = append(edges, edge{rng.Intn(n), rng.Intn(n)})
		}
		g := NewGraph(n)
		s := NewSkeleton(n)
		var dyn []edge
		for _, e := range edges {
			g.AddEdge(e.from, e.to, "e")
			if rng.Intn(2) == 0 {
				s.AddEdge(e.from, e.to, 0)
			} else {
				dyn = append(dyn, e)
			}
		}
		s.Freeze()
		o := AcquireOverlay(s)
		defer ReleaseOverlay(o)
		for _, e := range dyn {
			o.AddEdge(e.from, e.to, 0)
		}
		return o.HasCycle() == !g.Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestOverlayReuseAcrossSkeletons: a pooled overlay rebinds cleanly to a
// skeleton of a different size.
func TestOverlayReuseAcrossSkeletons(t *testing.T) {
	small := NewSkeleton(2)
	small.AddEdge(0, 1, 0)
	small.Freeze()
	big := NewSkeleton(50)
	for i := 0; i < 49; i++ {
		big.AddEdge(i, i+1, 0)
	}
	big.Freeze()
	o := AcquireOverlay(small)
	o.AddEdge(1, 0, 0)
	if !o.HasCycle() {
		t.Fatal("small cycle missed")
	}
	o.Reset(big)
	if o.HasCycle() {
		t.Fatal("stale dynamic edges after rebind")
	}
	o.AddEdge(49, 0, 0)
	if !o.HasCycle() {
		t.Fatal("big cycle missed")
	}
	ReleaseOverlay(o)
}

// BenchmarkOverlayCheck measures the pooled per-execution cost: reset,
// add a handful of dynamic edges, run the cycle check. This is the inner
// loop of the µspec verdict path and must not allocate.
func BenchmarkOverlayCheck(b *testing.B) {
	const n = 120
	s := NewSkeleton(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from < to {
			s.AddEdge(from, to, 0)
		}
	}
	s.Freeze()
	o := AcquireOverlay(s)
	defer ReleaseOverlay(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Reset(s)
		for j := 0; j < 30; j++ {
			from, to := (j*7)%n, (j*13+1)%n
			if from < to {
				o.AddEdge(from, to, 0)
			}
		}
		if o.HasCycle() {
			b.Fatal("unexpected cycle")
		}
	}
}
