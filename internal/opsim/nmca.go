package opsim

import (
	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// NMCASimulator is an operational model of the nWR microarchitecture:
// per-core store visibility (non-multiple-copy-atomic stores) on top of an
// in-order core with a forwarding FIFO store buffer. It cross-validates
// the axiomatic nWR µhb model — the substrate on which the paper's
// cumulativity bugs (WRC, RWC, IRIW) live.
//
// Memory is modelled the CCICheck way: draining a store appends it to a
// global per-location coherence order; each core then *applies* drained
// writes at its own pace, subject to
//
//   - coherence: a core applies same-location writes in the global order;
//   - source FIFO: a core applies writes from one source thread in that
//     thread's drain order (the FIFO buffer of nWR maintains W→W, and the
//     non-cumulative fences' and releases' W→W ordering is per-core
//     pointwise — exactly the axiomatic model's pointwise-vis edges);
//   - store atomicity: an aq.rl ("SC") AMO write is a single pending
//     event that later *commits* — entering the coherence order and
//     every core's view at one instant, mirroring the axiomatic model's
//     single VisibleAll node. Crucially the instant is deferred, not
//     tied to execution: the thread runs on past the AMO and until the
//     commit fires no core, the writer included, observes the write.
//     The commit in turn waits for the thread's earlier writes to be
//     applied everywhere (pointwise W→W into a simultaneous event means
//     global visibility). The AMO's read part, by contrast, performs at
//     execution against the coherence tail (so aq orders later accesses
//     after the read, not after the commit), and no other write to the
//     location enters the coherence order before the commit: the
//     write stays immediately coherence-after the write its read saw. The backend=both cross-check against the
//     axiomatic nWR model pinned this from both sides on the base+a
//     intuitive mapping: committing at execute time hid sb's relaxed
//     outcome, while dropping the single instant entirely let the
//     cumulativity litmus tests (WRC/RWC/IRIW with SC writers) through.
//
// A W→R fence (or an rl-annotated AMO load) additionally waits until the
// thread's own drained writes have been applied by every core — the
// operational reading of the axiomatic "flush" edges.
//
// The flat state (see frame) appends, per location, the coherence order
// (a length word, then write ids); applied[c][loc], the prefix of
// order[loc] core c has applied; the drained writes as (loc, val, src,
// atomic) records under a length word; and per thread the pending SC-AMO
// write as (kind, loc, data). A write's id is its position in the write
// list, which each source thread appends to in its drain order, so ids
// order any one thread's writes the way a per-thread drain sequence
// number would.
type NMCASimulator struct {
	frame
	nlocs   int
	maxW    int // writes the program can drain: stores and writing AMOs
	order   int // offset of order[0]'s length word; order[l] spans 1+maxW words
	applied int // offset of applied[0][0]; applied[c][l] is at applied+c*nlocs+l
	writes  int // offset of the write count; the records follow (see write)
	pending int // offset of thread 0's pending slot; 3 words per thread
	out     map[mem.Outcome]bool
	// States counts distinct explored configurations.
	States int
}

// A write record's fields, as offsets into its writeWords words.
const (
	wLoc = iota
	wVal
	wSrc
	wAtomic
	writeWords
)

// A pending slot's kind word: the slot is empty or holds an SC write.
const (
	pendingNone = iota
	pendingWrite
)

// NewNMCA returns an operational nWR simulator.
func NewNMCA(p *isa.Program) *NMCASimulator {
	s := &NMCASimulator{frame: newFrame(p), nlocs: p.Mem().NumLocs}
	for _, th := range p.Instrs {
		for i := range th {
			if th[i].HasWritePart() {
				s.maxW++
			}
		}
	}
	s.order = s.alloc(s.nlocs * (1 + s.maxW))
	s.applied = s.alloc(s.n * s.nlocs)
	s.writes = s.alloc(1 + writeWords*s.maxW)
	s.pending = s.alloc(3 * s.n)
	return s
}

func (s *NMCASimulator) orderLen(st []int64, l mem.Loc) int {
	return int(st[s.order+int(l)*(1+s.maxW)])
}

// orderAt returns the id of the i-th write in l's coherence order.
func (s *NMCASimulator) orderAt(st []int64, l mem.Loc, i int) int {
	return int(st[s.order+int(l)*(1+s.maxW)+1+i])
}

// appliedAt is the offset of applied[c][l].
func (s *NMCASimulator) appliedAt(c int, l mem.Loc) int { return s.applied + c*s.nlocs + int(l) }

// write returns the offset of write id's record.
func (s *NMCASimulator) write(id int) int { return s.writes + 1 + writeWords*id }

// view returns the value of loc as core c currently sees it (latest
// applied write, or the initial 0).
func (s *NMCASimulator) view(st []int64, c int, loc mem.Loc) int64 {
	n := int(st[s.appliedAt(c, loc)])
	if n == 0 {
		return 0
	}
	return st[s.write(s.orderAt(st, loc, n-1))+wVal]
}

// caughtUp reports whether core c has applied every drained write to loc.
func (s *NMCASimulator) caughtUp(st []int64, c int, loc mem.Loc) bool {
	return int(st[s.appliedAt(c, loc)]) == s.orderLen(st, loc)
}

// applyAllAt makes every drained write to loc applied at every core.
func (s *NMCASimulator) applyAllAt(st []int64, loc mem.Loc) {
	for c := 0; c < s.n; c++ {
		st[s.appliedAt(c, loc)] = int64(s.orderLen(st, loc))
	}
}

// unappliedFrom reports whether core c has yet to apply a write of
// thread src whose id is below before.
func (s *NMCASimulator) unappliedFrom(st []int64, c, src, before int) bool {
	for l := mem.Loc(0); int(l) < s.nlocs; l++ {
		for i := int(st[s.appliedAt(c, l)]); i < s.orderLen(st, l); i++ {
			if id := s.orderAt(st, l, i); id < before && int(st[s.write(id)+wSrc]) == src {
				return true
			}
		}
	}
	return false
}

// canApply reports whether core c may apply the next write to loc:
// coherence gives the candidate; source FIFO requires all earlier-drained
// writes from the same source applied at c first.
func (s *NMCASimulator) canApply(st []int64, c int, loc mem.Loc) bool {
	n := int(st[s.appliedAt(c, loc)])
	if n >= s.orderLen(st, loc) {
		return false
	}
	id := s.orderAt(st, loc, n)
	return !s.unappliedFrom(st, c, int(st[s.write(id)+wSrc]), id)
}

// ownWritesGloballyApplied reports whether every write thread t has
// drained so far is applied at every core (the W→R flush condition).
func (s *NMCASimulator) ownWritesGloballyApplied(st []int64, t int) bool {
	all := int(st[s.writes])
	for c := 0; c < s.n; c++ {
		if s.unappliedFrom(st, c, t, all) {
			return false
		}
	}
	return true
}

// pendingOf returns thread t's pending SC-AMO write.
func (s *NMCASimulator) pendingOf(st []int64, t int) (kind int, loc mem.Loc, data int64) {
	o := s.pending + 3*t
	return int(st[o]), mem.Loc(st[o+1]), st[o+2]
}

func (s *NMCASimulator) setPending(st []int64, t, kind int, loc mem.Loc, data int64) {
	o := s.pending + 3*t
	st[o], st[o+1], st[o+2] = int64(kind), int64(loc), data
}

// pendingAt reports whether thread t has a pending SC-AMO write to l.
func (s *NMCASimulator) pendingAt(st []int64, t int, l mem.Loc) bool {
	kind, pl, _ := s.pendingOf(st, t)
	return kind != pendingNone && pl == l
}

// mayReadPastOwn reports whether a read by thread t of l, not forwarded
// from its store buffer, may perform now. Reading its own newest write
// (or the initial value) always may; reading another thread's write
// requires t's own writes to l applied at every core first — a load
// that does not read its thread's store waits for that store to drain
// (the axiomatic sb-same-addr-drain edge).
func (s *NMCASimulator) mayReadPastOwn(st []int64, t int, l mem.Loc) bool {
	n := int(st[s.appliedAt(t, l)])
	if n == 0 || int(st[s.write(s.orderAt(st, l, n-1))+wSrc]) == t {
		return true
	}
	for c := 0; c < s.n; c++ {
		for i := int(st[s.appliedAt(c, l)]); i < s.orderLen(st, l); i++ {
			if int(st[s.write(s.orderAt(st, l, i))+wSrc]) == t {
				return false
			}
		}
	}
	return true
}

// pendingElsewhere reports whether a thread other than t has a pending
// SC-AMO write to l. That write's read part already performed, against
// the coherence tail, so no other write to l may enter the coherence
// order before it commits: the RMW's write must stay immediately
// coherence-after the write its read saw.
func (s *NMCASimulator) pendingElsewhere(st []int64, t int, l mem.Loc) bool {
	for u := 0; u < s.n; u++ {
		if u != t && s.pendingAt(st, u, l) {
			return true
		}
	}
	return false
}

// canCommit reports whether thread t's pending SC-AMO write may take its
// single visibility instant now: every core caught up on the location
// (the commit appends at the coherence tail and applies everywhere at
// once, so skipping an unapplied predecessor would break per-core
// coherence) and the thread's earlier writes applied at every core
// (pointwise W→W into a simultaneous event). Apply actions are always
// eventually enabled, so a pending commit can never deadlock.
func (s *NMCASimulator) canCommit(st []int64, t int) bool {
	kind, loc, _ := s.pendingOf(st, t)
	return kind != pendingNone && s.globallyCaughtUp(st, loc) && s.ownWritesGloballyApplied(st, t)
}

// globallyCaughtUp reports whether every core has applied every drained
// write to loc.
func (s *NMCASimulator) globallyCaughtUp(st []int64, loc mem.Loc) bool {
	for c := 0; c < s.n; c++ {
		if !s.caughtUp(st, c, loc) {
			return false
		}
	}
	return true
}

// commitPending fires thread t's pending SC-AMO write: appended to the
// coherence order and applied at every core in the same instant. It
// returns the location and the value written.
func (s *NMCASimulator) commitPending(st []int64, t int) (mem.Loc, int64) {
	_, loc, val := s.pendingOf(st, t)
	s.setPending(st, t, pendingNone, 0, 0)
	s.appendWrite(st, t, loc, val, true)
	s.applyAllAt(st, loc)
	return loc, val
}

// Outcomes exhaustively explores the machine and returns the reachable
// final states (cores quiesce: buffers empty, every write applied
// everywhere — eventual visibility). The visited set is dropped on
// return; later calls return the same set.
func (s *NMCASimulator) Outcomes() map[mem.Outcome]bool {
	if s.out == nil {
		s.out, s.States = explore(s, s.size)
	}
	return s.out
}

// Trace searches for an interleaving (execute, drain and per-core apply
// actions) reaching the target outcome and returns it as human-readable
// actions, or nil if unreachable. Like Simulator.Trace it uses its own
// visited set.
func (s *NMCASimulator) Trace(target mem.Outcome) []string {
	return trace(s, s.size, s.p.Mem(), target)
}

// successors generates every core's applies (by core, then location),
// then per thread a commit, a drain and the execution of the next
// instruction.
func (s *NMCASimulator) successors(st, next []int64, emit func(action) bool) bool {
	// Apply actions: any core advances any location's visibility.
	for c := 0; c < s.n; c++ {
		for l := mem.Loc(0); int(l) < s.nlocs; l++ {
			if !s.canApply(st, c, l) {
				continue
			}
			copy(next, st)
			at := s.appliedAt(c, l)
			w := s.write(s.orderAt(next, l, int(next[at])))
			next[at]++
			if emit(action{kind: actApply, thread: c, loc: l, val: next[w+wVal], src: int(next[w+wSrc])}) {
				return true
			}
		}
	}
	for t := 0; t < s.n; t++ {
		// Commit: a pending SC-AMO write takes its global instant.
		if s.canCommit(st, t) {
			copy(next, st)
			l, v := s.commitPending(next, t)
			if emit(action{kind: actCommit, thread: t, loc: l, val: v}) {
				return true
			}
		}
		// Drain: move the SB head into the coherence order. The draining
		// core must be caught up on the location (it acquires the line)
		// and applies its own write immediately. A pending SC-AMO write
		// holds drains back: anything buffered behind it is later in
		// program order, and pointwise W→W says it may not become
		// visible anywhere before the atomic's instant.
		if s.sbLen(st, t) > 0 {
			kind, _, _ := s.pendingOf(st, t)
			if l, _ := s.sbAt(st, t, 0); kind == pendingNone && s.caughtUp(st, t, l) && !s.pendingElsewhere(st, t, l) {
				copy(next, st)
				l, v := s.sbPop(next, t)
				s.appendWrite(next, t, l, v, false)
				if emit(action{kind: actDrainToOrder, thread: t, loc: l, val: v}) {
					return true
				}
			}
		}
		// Execute the next instruction.
		if pc := int(st[t]); pc < len(s.p.Instrs[t]) {
			ins := s.p.Instrs[t][pc]
			if s.blocked(st, t, ins) {
				continue
			}
			copy(next, st)
			s.execute(next, t, ins)
			next[t]++
			if emit(action{kind: actExecute, thread: t, src: pc}) {
				return true
			}
		}
	}
	return false
}

// appendWrite adds a drained/executed write to the coherence order and
// applies it at the writing core. Non-atomic writes reach the other
// cores through their own apply actions; SC-AMO commits follow this
// call with a simultaneous application at every core (the atomic flag
// records which writes took such an instant).
func (s *NMCASimulator) appendWrite(st []int64, t int, loc mem.Loc, val int64, atomic bool) {
	id := int(st[s.writes])
	st[s.writes]++
	w := s.write(id)
	st[w+wLoc], st[w+wVal], st[w+wSrc] = int64(loc), val, int64(t)
	if atomic {
		st[w+wAtomic] = 1
	}
	o := s.order + int(loc)*(1+s.maxW)
	st[o+1+int(st[o])] = int64(id)
	st[o]++
	st[s.appliedAt(t, loc)] = st[o]
}

// scAtomic reports whether the AMO is store atomic under the current spec
// (aq.rl; this simulator models riscv-curr nWR).
func scAtomic(ins *isa.Instr) bool { return ins.Aq && ins.Rl }

func (s *NMCASimulator) blocked(st []int64, t int, ins *isa.Instr) bool {
	kind, _, _ := s.pendingOf(st, t)
	switch {
	case ins.Op == isa.OpLoad:
		// Forwarding store buffer, W→R relaxed — except that an
		// uncommitted same-location SC-AMO write lives at the memory
		// system, not in the buffer, so the load must wait for its
		// instant (it may not read an older write than the thread's own).
		l := s.loc(st, t, ins)
		if s.pendingAt(st, t, l) {
			return true
		}
		_, forwarded := s.sbNewest(st, t, l)
		return !forwarded && !s.mayReadPastOwn(st, t, l)
	case ins.Op == isa.OpAMOLoad:
		// Reads at the memory system: no same-location entry may be
		// buffered or pending; rl additionally waits for the whole
		// buffer and for global visibility of own writes — a pending
		// atomic is an own write not yet visible anywhere.
		l := s.loc(st, t, ins)
		if _, buffered := s.sbNewest(st, t, l); buffered || s.pendingAt(st, t, l) || !s.mayReadPastOwn(st, t, l) {
			return true
		}
		return ins.Rl && (s.sbLen(st, t) > 0 || kind != pendingNone || !s.ownWritesGloballyApplied(st, t))
	case ins.Op.IsAMO():
		// Writing AMOs flush the buffer (W→W + not-buffered) and wait
		// for any in-flight atomic (SC pairs order their visibility
		// instants; plain writes may not overtake one pointwise).
		if kind != pendingNone || s.sbLen(st, t) > 0 {
			return true
		}
		// Every writing AMO acquires the line: its read part performs
		// now, against the coherence tail, and no other thread's pending
		// SC write to the location may be overtaken. Release (and
		// relaxed) AMOs then write through, propagating per core under
		// source FIFO — the pointwise-vis reading of the eager release
		// edges; SC AMOs park their write in the pending slot.
		l := s.loc(st, t, ins)
		return !s.caughtUp(st, t, l) || s.pendingElsewhere(st, t, l) || !s.mayReadPastOwn(st, t, l)
	case ins.Op == isa.OpFence:
		// W→R fences flush: own buffer empty and own writes applied
		// everywhere (a pending atomic included). Other classes are
		// covered by in-order execution and the source-FIFO application
		// rule.
		if ins.Pred.HasW() && ins.Succ.HasR() && ins.Cum != isa.CumLW {
			return s.sbLen(st, t) > 0 || kind != pendingNone || !s.ownWritesGloballyApplied(st, t)
		}
	}
	return false
}

func (s *NMCASimulator) execute(st []int64, t int, ins *isa.Instr) {
	l := s.loc(st, t, ins)
	switch ins.Op {
	case isa.OpLoad:
		v, ok := s.sbNewest(st, t, l)
		if !ok {
			v = s.view(st, t, l)
		}
		s.setReg(st, t, ins.Dst, v)
	case isa.OpStore:
		s.sbPush(st, t, l, s.operand(st, t, ins.Data))
	case isa.OpAMOLoad:
		s.setReg(st, t, ins.Dst, s.view(st, t, l))
	case isa.OpAMOStore, isa.OpAMOSwap, isa.OpAMOAdd:
		old := s.view(st, t, l)
		if ins.Dst != mem.NoDst {
			s.setReg(st, t, ins.Dst, old)
		}
		val := s.operand(st, t, ins.Data)
		if ins.Op == isa.OpAMOAdd {
			val += old
		}
		if scAtomic(ins) {
			// The read part has performed; the write waits for its
			// single visibility instant (commitPending).
			s.setPending(st, t, pendingWrite, l, val)
		} else {
			s.appendWrite(st, t, l, val, false)
		}
	}
	// A fence's ordering effect is all in blocked().
}

func (s *NMCASimulator) outcome(st []int64) mem.Outcome {
	return s.finalOutcome(st, func(l mem.Loc) int64 {
		if n := s.orderLen(st, l); n > 0 {
			return st[s.write(s.orderAt(st, l, n-1))+wVal]
		}
		return 0
	})
}
