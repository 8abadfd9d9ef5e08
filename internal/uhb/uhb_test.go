package uhb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAcyclicSimple(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, "a")
	g.AddEdge(1, 2, "b")
	g.AddEdge(2, 3, "c")
	if !g.Acyclic() {
		t.Fatal("chain should be acyclic")
	}
	g.AddEdge(3, 0, "d")
	if g.Acyclic() {
		t.Fatal("closed chain should be cyclic")
	}
}

func TestSelfLoop(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(1, 1, "self")
	cycle := g.FindCycle()
	if len(cycle) != 1 || cycle[0] != 1 {
		t.Fatalf("self-loop cycle = %v, want [1]", cycle)
	}
}

func TestFindCycleIsRealCycle(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1, "po")
	g.AddEdge(1, 2, "po")
	g.AddEdge(2, 4, "rf")
	g.AddEdge(4, 5, "fence")
	g.AddEdge(5, 1, "fr")
	g.AddEdge(3, 0, "extra")
	cycle := g.FindCycle()
	if cycle == nil {
		t.Fatal("want a cycle")
	}
	for i, v := range cycle {
		w := cycle[(i+1)%len(cycle)]
		if !g.HasEdge(v, w) {
			t.Fatalf("cycle %v has non-edge %d->%d", cycle, v, w)
		}
	}
}

func TestDuplicateEdgesKeepFirstReason(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, "first")
	g.AddEdge(0, 1, "second")
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got := g.Reason(0, 1); got != "first" {
		t.Fatalf("Reason = %q, want first", got)
	}
}

func TestTopoOrder(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(2, 0, "")
	g.AddEdge(0, 1, "")
	g.AddEdge(1, 3, "")
	order := g.TopoOrder()
	if order == nil {
		t.Fatal("acyclic graph must have a topo order")
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[2] < pos[0] && pos[0] < pos[1] && pos[1] < pos[3]) {
		t.Fatalf("order %v not topological", order)
	}
	g.AddEdge(3, 2, "")
	if g.TopoOrder() != nil {
		t.Fatal("cyclic graph must have no topo order")
	}
}

func TestExplainCycleAndDOT(t *testing.T) {
	g := NewGraph(3)
	g.SetLabel(0, "I0.Fetch")
	g.SetLabel(1, "I1.Perform")
	g.SetLabel(2, "I2.Visible@c1")
	g.AddEdge(0, 1, "program-order")
	g.AddEdge(1, 2, "rf")
	g.AddEdge(2, 0, "fr")
	s := g.ExplainCycle(g.FindCycle())
	for _, want := range []string{"I0.Fetch", "program-order", "rf", "fr"} {
		if !strings.Contains(s, want) {
			t.Errorf("explanation %q missing %q", s, want)
		}
	}
	dot := g.DOT("test")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "I1.Perform") {
		t.Errorf("DOT output malformed: %s", dot)
	}
}

// TestQuickAcyclicityMatchesTopo cross-checks FindCycle against TopoOrder on
// random graphs: exactly one of them must succeed.
func TestQuickAcyclicityMatchesTopo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		g := NewGraph(n)
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), "e")
		}
		return g.Acyclic() == (g.TopoOrder() != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEdgeMonotonicity: adding edges can only create cycles, never
// remove them.
func TestQuickEdgeMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		g := NewGraph(n)
		cyclicAt := -1
		for i := 0; i < 4*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), "e")
			if !g.Acyclic() {
				cyclicAt = i
				break
			}
		}
		if cyclicAt == -1 {
			return true
		}
		// Add more edges; must stay cyclic.
		for i := 0; i < n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), "e")
			if g.Acyclic() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCycleWitnessValid: any reported cycle consists of real edges.
func TestQuickCycleWitnessValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := NewGraph(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n), "e")
		}
		cycle := g.FindCycle()
		if cycle == nil {
			return g.TopoOrder() != nil
		}
		for i, v := range cycle {
			if !g.HasEdge(v, cycle[(i+1)%len(cycle)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFindCycleInsertionOrderIndependent: the reported cycle is a pure
// function of the edge set — permuting edge insertion order cannot change
// it. This is what keeps cycle explanations deterministic even when a
// builder discovers ordering obligations in nondeterministic (map) order.
func TestFindCycleInsertionOrderIndependent(t *testing.T) {
	type edge struct{ from, to int }
	edges := []edge{
		{0, 1}, {1, 2}, {2, 0}, // one cycle
		{2, 3}, {3, 4}, {4, 2}, // another cycle
		{5, 0}, {1, 5}, // extra structure
	}
	build := func(perm []int) *Graph {
		g := NewGraph(6)
		for _, i := range perm {
			g.AddEdge(edges[i].from, edges[i].to, "e")
		}
		return g
	}
	base := build([]int{0, 1, 2, 3, 4, 5, 6, 7})
	want := base.FindCycle()
	if want == nil {
		t.Fatal("graph must be cyclic")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(edges))
		got := build(perm).FindCycle()
		if len(got) != len(want) {
			t.Fatalf("insertion order changed cycle: got %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("insertion order changed cycle: got %v want %v", got, want)
			}
		}
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range edge")
		}
	}()
	g := NewGraph(1)
	g.AddEdge(0, 5, "bad")
}

func BenchmarkFindCycleDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := NewGraph(60)
	for i := 0; i < 400; i++ {
		from, to := rng.Intn(60), rng.Intn(60)
		if from < to { // keep acyclic: worst case for the search
			g.AddEdge(from, to, "e")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Acyclic() {
			b.Fatal("unexpected cycle")
		}
	}
}
