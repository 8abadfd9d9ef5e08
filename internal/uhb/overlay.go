package uhb

import (
	"fmt"
	"sync"
)

// Overlay is the dynamic tier of a two-tier µhb graph: the
// execution-dependent edges of one candidate execution (coherence order,
// reads-from, from-reads, dependency-sourced values, cumulative fence
// closures) layered over a frozen Skeleton.
//
// Overlays are resettable and allocation-free in steady state: all edge
// and traversal storage lives in reusable buffers that survive Reset, so
// one overlay can evaluate an entire enumeration sweep — acquire one per
// worker via AcquireOverlay, Reset it per execution, and release it when
// the sweep ends.
//
// HasCycle keeps a topological order of the bound skeleton across
// Resets (see HasCycle), so consecutive candidates of one sweep, whose
// dynamic edges mostly agree, pay only for the edges that disagree with
// the order the previous candidates left behind.
//
// Unlike Graph and Skeleton, an Overlay does not deduplicate edges:
// duplicates cannot change acyclicity, the number of AddEdge calls is
// already bounded by the builder's work, and skipping the lookup keeps
// the hot path branch-free. Reason codes are stored but never resolved
// here; diagnostics always go through the materialized Graph path.
type Overlay struct {
	skel *Skeleton

	// Dynamic adjacency as per-node singly linked lists threaded through
	// shared buffers: head[v] is the first edge index of node v or -1,
	// next[e] chains, from[e]/to[e]/reason[e] describe edge e. Lists are
	// built head-first; the cycle checks do not depend on traversal order.
	head   []int32
	next   []int32
	from   []int32
	to     []int32
	reason []uint32

	// Topological order of skel: pos[v] is node v's position and ord the
	// inverse permutation. Valid while ordered; skelCyclic records that
	// Kahn's algorithm found no order at all.
	ordered    bool
	skelCyclic bool
	pos        []int32
	ord        []int32

	// Order-repair scratch: epoch-stamped visited marks (also Kahn's
	// in-degree counts), the search stack and the shifted node set.
	mark  []uint32
	epoch uint32
	stack []int32
	moved []int32

	// HasCycleReasons DFS scratch, sized to the node count.
	color []byte
	fnode []int32  // DFS stack: node per frame
	fsidx []int32  // next static-CSR index to explore
	fdyn  []int32  // next dynamic edge index to explore (-1 = done)
	fvia  []uint32 // reason code of the edge that entered each frame
}

// NewOverlay returns an overlay bound to skel, ready for AddEdge.
func NewOverlay(skel *Skeleton) *Overlay {
	o := &Overlay{}
	o.Reset(skel)
	return o
}

// Reset rebinds the overlay to skel (which may differ from the previous
// binding) and discards all dynamic edges, retaining buffer capacity.
// Resetting to the bound skeleton keeps HasCycle's topological order;
// rebinding drops it. A bound skeleton must stay alive (not go back
// through ReleaseSkeleton) while the overlay is bound to it.
func (o *Overlay) Reset(skel *Skeleton) {
	if !skel.frozen {
		panic("uhb: Overlay.Reset on unfrozen Skeleton")
	}
	if skel != o.skel {
		o.ordered = false
	}
	o.skel = skel
	n := skel.n
	if cap(o.head) < n {
		o.head = make([]int32, n)
		o.pos = make([]int32, n)
		o.ord = make([]int32, n)
		o.mark = make([]uint32, n)
		o.stack = make([]int32, 0, n)
		o.moved = make([]int32, 0, n)
		o.color = make([]byte, n)
		o.fnode = make([]int32, n)
		o.fsidx = make([]int32, n)
		o.fdyn = make([]int32, n)
		o.fvia = make([]uint32, n)
	}
	o.head = o.head[:n]
	o.pos = o.pos[:n]
	o.ord = o.ord[:n]
	o.mark = o.mark[:n]
	o.color = o.color[:n]
	o.fnode = o.fnode[:n]
	o.fsidx = o.fsidx[:n]
	o.fdyn = o.fdyn[:n]
	o.fvia = o.fvia[:n]
	for i := range o.head {
		o.head[i] = -1
	}
	o.next = o.next[:0]
	o.from = o.from[:0]
	o.to = o.to[:0]
	o.reason = o.reason[:0]
}

// AddEdge records a dynamic edge with an opaque reason code.
func (o *Overlay) AddEdge(from, to int, reason uint32) {
	if from < 0 || from >= o.skel.n || to < 0 || to >= o.skel.n {
		panic(fmt.Sprintf("uhb: overlay edge (%d,%d) out of range [0,%d)", from, to, o.skel.n))
	}
	o.next = append(o.next, o.head[from])
	o.head[from] = int32(len(o.to))
	o.from = append(o.from, int32(from))
	o.to = append(o.to, int32(to))
	o.reason = append(o.reason, reason)
}

// HasEdge reports whether the edge exists in either tier.
func (o *Overlay) HasEdge(from, to int) bool {
	if from >= 0 && from < o.skel.n {
		for e := o.head[from]; e >= 0; e = o.next[e] {
			if int(o.to[e]) == to {
				return true
			}
		}
	}
	return o.skel.HasEdge(from, to)
}

// ForEachDynamicEdge visits every dynamic edge record in insertion order
// with its reason code.
func (o *Overlay) ForEachDynamicEdge(fn func(from, to int, reason uint32)) {
	for e := range o.to {
		fn(int(o.from[e]), int(o.to[e]), o.reason[e])
	}
}

// HasCycle reports whether skeleton+overlay contains a directed cycle.
//
// The overlay keeps a topological order of its bound skeleton, computed
// once per binding with Kahn's algorithm and carried across Resets.
// Dynamic edges the order already respects cost one comparison; each
// other edge (x, y) is inserted with the bounded forward search of
// Marchetti-Spaccamela, Nanni and Rohnert, which explores what y
// reaches strictly between pos[y] and pos[x]. Reaching x closes a
// cycle; otherwise the explored nodes move to just after x, which keeps
// every edge that pointed forward pointing forward. So when every edge
// is inserted the order is valid for skeleton + overlay, and it stays
// valid for the skeleton alone, ready for the next candidate.
// Allocation-free in steady state.
func (o *Overlay) HasCycle() bool {
	if !o.ordered {
		o.orderSkeleton()
	}
	if o.skelCyclic {
		return true
	}
	for e := range o.to {
		if !o.insert(o.from[e], o.to[e]) {
			return true
		}
	}
	return false
}

// orderSkeleton computes the skeleton's topological order with Kahn's
// algorithm, using ord itself as the FIFO queue.
func (o *Overlay) orderSkeleton() {
	s := o.skel
	indeg := o.mark
	clear(indeg)
	for _, w := range s.dst {
		indeg[w]++
	}
	ord := o.ord[:0]
	for v := range s.n {
		if indeg[v] == 0 {
			ord = append(ord, int32(v))
		}
	}
	for i := 0; i < len(ord); i++ {
		v := ord[i]
		o.pos[v] = int32(i)
		for j := s.off[v]; j < s.off[v+1]; j++ {
			w := s.dst[j]
			indeg[w]--
			if indeg[w] == 0 {
				ord = append(ord, w)
			}
		}
	}
	o.skelCyclic = len(ord) < s.n
	clear(o.mark)
	o.epoch = 0
	o.ordered = true
}

// insert makes the edge (x, y) point forward, repairing the order if y
// precedes x, or reports false when y reaches x — the edge closes a
// cycle — leaving the order untouched.
func (o *Overlay) insert(x, y int32) bool {
	px, py := o.pos[x], o.pos[y]
	if py > px {
		return true
	}
	if x == y {
		return false
	}
	o.epoch++
	if o.epoch == 0 {
		clear(o.mark)
		o.epoch = 1
	}
	epoch := o.epoch
	s := o.skel
	o.mark[y] = epoch
	stack := append(o.stack[:0], y)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := s.off[v]; i < s.off[v+1]; i++ {
			w := s.dst[i]
			if w == x {
				o.stack = stack
				return false
			}
			if p := o.pos[w]; p > py && p < px && o.mark[w] != epoch {
				o.mark[w] = epoch
				stack = append(stack, w)
			}
		}
		for e := o.head[v]; e >= 0; e = o.next[e] {
			w := o.to[e]
			if w == x {
				o.stack = stack
				return false
			}
			if p := o.pos[w]; p > py && p < px && o.mark[w] != epoch {
				o.mark[w] = epoch
				stack = append(stack, w)
			}
		}
	}
	o.stack = stack
	// Compact the unexplored nodes of [py, px], x last, then place the
	// explored ones after x, each group in its old order.
	moved := o.moved[:0]
	at := py
	for i := py; i <= px; i++ {
		v := o.ord[i]
		if o.mark[v] == epoch {
			moved = append(moved, v)
			continue
		}
		o.ord[at] = v
		o.pos[v] = at
		at++
	}
	for _, v := range moved {
		o.ord[at] = v
		o.pos[v] = at
		at++
	}
	o.moved = moved
	return true
}

// HasCycleReasons is HasCycle with provenance: when a cycle exists, the
// reason codes of every edge on the first cycle found (in traversal
// order, duplicates preserved) are appended to buf. The search is a
// deterministic full DFS, independent of HasCycle's order, so the
// witnessing cycle — and therefore the reason multiset — is stable for a
// given skeleton, overlay contents, and insertion order. The search is
// iterative (explicit stack), so deep graphs from synthesized variants
// cannot overflow a goroutine stack. Pass a buffer with spare capacity
// (e.g. a reused buf[:0]) to keep the call allocation-free.
func (o *Overlay) HasCycleReasons(buf []uint32) ([]uint32, bool) {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	s := o.skel
	n := s.n
	color := o.color
	for i := range color {
		color[i] = white
	}
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		sp := 0
		o.fnode[sp] = int32(start)
		o.fsidx[sp] = s.off[start]
		o.fdyn[sp] = o.head[start]
		color[start] = gray
		sp++
		for sp > 0 {
			f := sp - 1
			v := o.fnode[f]
			var w int32 = -1
			var r uint32
			if i := o.fsidx[f]; i < s.off[v+1] {
				w = s.dst[i]
				r = s.reason[i]
				o.fsidx[f] = i + 1
			} else if e := o.fdyn[f]; e >= 0 {
				w = o.to[e]
				r = o.reason[e]
				o.fdyn[f] = o.next[e]
			} else {
				color[v] = black
				sp--
				continue
			}
			switch color[w] {
			case white:
				color[w] = gray
				o.fnode[sp] = w
				o.fsidx[sp] = s.off[w]
				o.fdyn[sp] = o.head[w]
				o.fvia[sp] = r
				sp++
			case gray:
				// w is gray, so it sits somewhere on the DFS stack; the
				// cycle is w → … → v → w. The frames above w's record
				// the reason each was entered through, and r closes the
				// loop.
				j := f
				for o.fnode[j] != w {
					j--
				}
				for k := j + 1; k <= f; k++ {
					buf = append(buf, o.fvia[k])
				}
				buf = append(buf, r)
				return buf, true
			}
		}
	}
	return buf, false
}

// overlayPool recycles overlays across evaluations; a whole enumeration
// sweep on one worker reuses a single buffer set.
var overlayPool = sync.Pool{New: func() any { return &Overlay{} }}

// AcquireOverlay returns a pooled overlay bound (and reset) to skel.
// Release it with ReleaseOverlay when the sweep is done.
func AcquireOverlay(skel *Skeleton) *Overlay {
	o := overlayPool.Get().(*Overlay)
	o.Reset(skel)
	return o
}

// ReleaseOverlay returns an overlay to the pool, dropping its skeleton
// binding and topological order. The caller must not use it afterwards.
func ReleaseOverlay(o *Overlay) {
	o.skel = nil
	o.ordered = false
	overlayPool.Put(o)
}
