// Package uhb implements microarchitectural happens-before (µhb) graphs,
// the decision structure of the PipeCheck/Check family of tools that
// TriCheck builds on. Nodes are (instruction, location) pairs — a location
// being a pipeline stage or a store-visibility point — and labelled edges
// are ordering obligations contributed by µspec axioms. An execution
// candidate is observable on a microarchitecture exactly when its µhb graph
// is acyclic; a cycle is a proof that the candidate cannot happen.
package uhb

import (
	"fmt"
	"sort"
	"strings"
)

// Graph is a directed graph over a fixed set of nodes with labelled edges.
// The zero value is not usable; call NewGraph.
//
// Graph is the fully materialized, diagnostics-grade representation: every
// edge carries a reason string and every node may carry a label. The
// verdict path of the µspec evaluator does not use Graph at all — it runs
// on the two-tier Skeleton/Overlay core (see skeleton.go and overlay.go),
// which stores compact reason codes and never formats a string. A Graph is
// copied from a skeleton and one execution's overlay only when a human
// asks for an explanation, a witness, or DOT.
type Graph struct {
	n      int
	adj    [][]int32
	edgeOf map[int64]string // packed (from,to) → first reason recorded
	labels []string
	dirty  bool // adjacency lists not yet sorted for deterministic search
}

// NewGraph returns a graph with n nodes and no edges. Node labels are
// optional and used only for rendering cycles and DOT output.
func NewGraph(n int) *Graph {
	return &Graph{
		n:      n,
		adj:    make([][]int32, n),
		edgeOf: make(map[int64]string),
		labels: make([]string, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// SetLabel names a node for diagnostics.
func (g *Graph) SetLabel(node int, label string) { g.labels[node] = label }

// Label returns the diagnostic name of a node.
func (g *Graph) Label(node int) string {
	if g.labels[node] != "" {
		return g.labels[node]
	}
	return fmt.Sprintf("n%d", node)
}

func pack(from, to int) int64 { return int64(from)<<32 | int64(uint32(to)) }

// AddEdge adds a directed edge with a reason (the axiom that demanded it).
// Self-loops are recorded as edges and make the graph cyclic. Duplicate
// edges are ignored, keeping the first reason.
func (g *Graph) AddEdge(from, to int, reason string) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("uhb: edge (%d,%d) out of range [0,%d)", from, to, g.n))
	}
	k := pack(from, to)
	if _, dup := g.edgeOf[k]; dup {
		return
	}
	g.edgeOf[k] = reason
	g.adj[from] = append(g.adj[from], int32(to))
	g.dirty = true
}

// sortAdj sorts every adjacency list by target node so that traversals are
// deterministic regardless of edge insertion order. Builders may insert
// edges in nondeterministic order (e.g. when a set of obligations comes out
// of a map); sorting here makes FindCycle — and therefore every cycle
// explanation — a pure function of the edge set.
func (g *Graph) sortAdj() {
	if !g.dirty {
		return
	}
	for _, outs := range g.adj {
		sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })
	}
	g.dirty = false
}

// HasEdge reports whether the edge exists.
func (g *Graph) HasEdge(from, to int) bool {
	_, ok := g.edgeOf[pack(from, to)]
	return ok
}

// Reason returns the axiom label recorded for an edge, or "".
func (g *Graph) Reason(from, to int) string { return g.edgeOf[pack(from, to)] }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return len(g.edgeOf) }

// Acyclic reports whether the graph has no directed cycle.
func (g *Graph) Acyclic() bool { return g.FindCycle() == nil }

// FindCycle returns the node sequence of some directed cycle
// (c[0] → c[1] → ... → c[len-1] → c[0]), or nil if the graph is acyclic.
// The search is iterative, so deep graphs cannot overflow the stack, and
// deterministic: neighbors are explored in increasing node order, so the
// reported cycle depends only on the edge set, never on insertion order.
func (g *Graph) FindCycle() []int {
	g.sortAdj()
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make([]byte, g.n)
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int32
		next int
	}
	for start := 0; start < g.n; start++ {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: int32(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.node]) {
				to := g.adj[f.node][f.next]
				f.next++
				switch color[to] {
				case white:
					color[to] = gray
					parent[to] = f.node
					stack = append(stack, frame{node: to})
				case gray:
					// Found a cycle: walk parents from f.node back to "to".
					cycle := []int{int(to)}
					for v := f.node; v != to; v = parent[v] {
						cycle = append(cycle, int(v))
					}
					// Reverse so edges point forward.
					for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return cycle
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// ExplainCycle renders a cycle (as returned by FindCycle) with node labels
// and per-edge reasons — the counterexample explanation a designer reads.
func (g *Graph) ExplainCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "acyclic"
	}
	var b strings.Builder
	for i, v := range cycle {
		w := cycle[(i+1)%len(cycle)]
		fmt.Fprintf(&b, "%s --[%s]--> ", g.Label(v), g.Reason(v, w))
		if i == len(cycle)-1 {
			b.WriteString(g.Label(w))
		}
	}
	return b.String()
}

// IsIsolated reports whether the node has no incident edges at all.
func (g *Graph) IsIsolated(node int) bool {
	if len(g.adj[node]) > 0 {
		return false
	}
	for k := range g.edgeOf {
		if int(uint32(k)) == node {
			return false
		}
	}
	return true
}

// TopoOrder returns a topological order of the nodes, or nil if cyclic.
func (g *Graph) TopoOrder() []int {
	indeg := make([]int, g.n)
	for _, outs := range g.adj {
		for _, w := range outs {
			indeg[w]++
		}
	}
	var queue []int
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	var order []int
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, int(w))
			}
		}
	}
	if len(order) != g.n {
		return nil
	}
	return order
}

// DOT renders the graph in Graphviz format, one edge per line with the
// axiom reason as edge label. Nodes without edges are omitted.
func (g *Graph) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	keys := make([]int64, 0, len(g.edgeOf))
	for k := range g.edgeOf {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		from, to := int(k>>32), int(uint32(k))
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", g.Label(from), g.Label(to), g.edgeOf[k])
	}
	b.WriteString("}\n")
	return b.String()
}
