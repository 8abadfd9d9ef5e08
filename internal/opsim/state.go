package opsim

import (
	"fmt"
	"strings"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// Both machines keep a configuration in one flat []int64 of a fixed,
// per-program layout. Every variable-length part (a store buffer, a
// coherence order, the write list) has a length word and as many slots
// as the program can ever fill; unused slots stay zero. Two states are
// therefore equal exactly when their words are, so the visited-set key
// is just the words, each packed as a zigzag varint (one byte for the
// small values litmus states hold); a successor is one copy plus the
// action's edits. The all-zero state is the initial one.

// frame is the part of the layout both machines share: the program
// counters (words 0..n-1), each thread's registers, and each thread's
// store buffer — a length word followed by (loc, val) slots, oldest
// first, one per store the thread issues.
type frame struct {
	p    *isa.Program
	n    int   // threads
	reg  []int // reg[t]: offset of thread t's registers
	sb   []int // sb[t]: offset of thread t's store-buffer length word
	size int   // words allocated so far
}

func newFrame(p *isa.Program) frame {
	f := frame{p: p, n: p.NumThreads(), size: p.NumThreads()}
	for _, th := range p.Instrs {
		regs, stores := 0, 0
		for _, ins := range th {
			if ins.Dst != mem.NoDst {
				regs = max(regs, ins.Dst+1)
			}
			for _, op := range []mem.Operand{ins.Addr, ins.Data} {
				if op.Kind == mem.OpReg {
					regs = max(regs, op.Reg+1)
				}
			}
			if ins.Op == isa.OpStore {
				stores++
			}
		}
		f.reg = append(f.reg, f.alloc(regs))
		f.sb = append(f.sb, f.alloc(1+2*stores))
	}
	return f
}

// alloc reserves k words and returns their offset.
func (f *frame) alloc(k int) int {
	f.size += k
	return f.size - k
}

func (f *frame) operand(st []int64, t int, op mem.Operand) int64 {
	if op.Kind == mem.OpConst {
		return op.Const
	}
	return st[f.reg[t]+op.Reg]
}

// loc resolves an instruction's address. A register-carried address
// that is not a location panics, as an out-of-range index into the
// per-location parts would otherwise alias a neighbouring field.
func (f *frame) loc(st []int64, t int, ins *isa.Instr) mem.Loc {
	l := f.operand(st, t, ins.Addr)
	if ins.Op != isa.OpFence && (l < 0 || l >= int64(f.p.Mem().NumLocs)) {
		panic(fmt.Sprintf("opsim: T%d: address %d is not a location", t, l))
	}
	return mem.Loc(l)
}

func (f *frame) setReg(st []int64, t, r int, v int64) { st[f.reg[t]+r] = v }

func (f *frame) sbLen(st []int64, t int) int { return int(st[f.sb[t]]) }

// sbAt returns thread t's i-th oldest buffered store.
func (f *frame) sbAt(st []int64, t, i int) (mem.Loc, int64) {
	o := f.sb[t] + 1 + 2*i
	return mem.Loc(st[o]), st[o+1]
}

func (f *frame) sbPush(st []int64, t int, l mem.Loc, v int64) {
	o := f.sb[t] + 1 + 2*f.sbLen(st, t)
	st[o], st[o+1] = int64(l), v
	st[f.sb[t]]++
}

// sbPop removes and returns thread t's oldest buffered store, shifting
// the rest down and zeroing the freed slot.
func (f *frame) sbPop(st []int64, t int) (mem.Loc, int64) {
	l, v := f.sbAt(st, t, 0)
	o, n := f.sb[t]+1, 2*f.sbLen(st, t)
	copy(st[o:o+n-2], st[o+2:o+n])
	st[o+n-2], st[o+n-1] = 0, 0
	st[f.sb[t]]--
	return l, v
}

// sbNewest returns the value of thread t's newest buffered store to l.
func (f *frame) sbNewest(st []int64, t int, l mem.Loc) (int64, bool) {
	for i := f.sbLen(st, t) - 1; i >= 0; i-- {
		if el, v := f.sbAt(st, t, i); el == l {
			return v, true
		}
	}
	return 0, false
}

// finalOutcome renders a final state in the axiomatic side's canonical
// form: register observers, then final-memory observers read through
// memAt.
func (f *frame) finalOutcome(st []int64, memAt func(mem.Loc) int64) mem.Outcome {
	mp := f.p.Mem()
	o := mem.OutcomeFromValues(mp.Observers, func(ob mem.Observer) int64 {
		return st[f.reg[ob.Thread]+ob.Reg]
	})
	if len(mp.MemObservers) == 0 {
		return o
	}
	parts := make([]string, 0, len(mp.MemObservers))
	for _, m := range mp.MemObservers {
		parts = append(parts, fmt.Sprintf("%s=%d", m.Label, memAt(m.Loc)))
	}
	memPart := mem.Outcome(strings.Join(parts, "; "))
	if o == "" {
		return memPart
	}
	return o + "; " + memPart
}

// action is one machine step, rendered only for trace witnesses.
type action struct {
	kind   actionKind
	thread int // the acting thread; for apply, the core
	loc    mem.Loc
	val    int64
	src    int // apply: the writing thread; execute: the instruction index
}

type actionKind uint8

const (
	actExecute actionKind = iota
	actDrainToMemory
	actDrainToOrder
	actApply
	actCommit
)

func (a action) describe(mp *mem.Program) string {
	loc := mp.LocName(a.loc)
	switch a.kind {
	case actDrainToMemory:
		return fmt.Sprintf("T%d: drain %s=%d to memory", a.thread, loc, a.val)
	case actDrainToOrder:
		return fmt.Sprintf("T%d: drain %s=%d into the coherence order", a.thread, loc, a.val)
	case actApply:
		return fmt.Sprintf("T%d: apply %s=%d (written by T%d)", a.thread, loc, a.val, a.src)
	case actCommit:
		return fmt.Sprintf("T%d: commit atomic %s=%d to every core", a.thread, loc, a.val)
	}
	return fmt.Sprintf("T%d: execute instruction %d", a.thread, a.src)
}

// machine is one operational machine's transition system over flat
// states.
type machine interface {
	// successors writes each successor of st in turn into next and calls
	// emit with the action that produced it. The action order is fixed
	// (it decides which witness Trace finds); successors returns true as
	// soon as emit does.
	successors(st, next []int64, emit func(action) bool) bool
	// outcome renders a final (quiescent) state.
	outcome(st []int64) mem.Outcome
}

// walker is a depth-first search over a machine's states that visits
// each distinct state once. The state at depth d+1 is built in bufs[d+1]
// and keys are packed into one scratch buffer, so a search allocates
// only the visited-set entries.
type walker struct {
	m      machine
	seen   map[string]struct{}
	bufs   [][]int64
	key    []byte
	depth  int
	path   []action
	moves  int                   // actions emitted so far
	emit   func(action) bool     // step, bound once
	leaf   func(st []int64) bool // called on quiescent states; true stops the search
	states int
}

func newWalker(m machine, size int, leaf func([]int64) bool) *walker {
	// 64 entries hold a typical litmus exploration without regrowing.
	w := &walker{m: m, seen: make(map[string]struct{}, 64), bufs: [][]int64{make([]int64, size)}, leaf: leaf}
	w.emit = w.step
	return w
}

// run searches from the initial state and reports whether leaf stopped
// the search.
func (w *walker) run() bool { return w.visit(w.bufs[0]) }

func (w *walker) visit(st []int64) bool {
	key := w.key[:0]
	for _, v := range st {
		u := uint64(v<<1) ^ uint64(v>>63) // zigzag: small magnitudes take one byte
		for u >= 0x80 {
			key = append(key, byte(u)|0x80)
			u >>= 7
		}
		key = append(key, byte(u))
	}
	w.key = key
	if _, ok := w.seen[string(key)]; ok {
		return false
	}
	w.seen[string(key)] = struct{}{}
	w.states++
	w.depth++
	if w.depth == len(w.bufs) {
		w.bufs = append(w.bufs, make([]int64, len(st)))
	}
	moves := w.moves
	stop := w.m.successors(st, w.bufs[w.depth], w.emit)
	w.depth--
	return stop || w.moves == moves && w.leaf(st)
}

// step follows one emitted action into the successor just built.
func (w *walker) step(a action) bool {
	w.moves++
	w.path = append(w.path, a)
	if w.visit(w.bufs[w.depth]) {
		return true
	}
	w.path = w.path[:len(w.path)-1]
	return false
}

// explore visits every reachable state and returns the final outcomes and
// the number of distinct states.
func explore(m machine, size int) (map[mem.Outcome]bool, int) {
	out := map[mem.Outcome]bool{}
	w := newWalker(m, size, func(st []int64) bool {
		out[m.outcome(st)] = true
		return false
	})
	w.run()
	return out, w.states
}

// trace returns the first interleaving, in the machine's action order,
// that reaches target, or nil if none does.
func trace(m machine, size int, mp *mem.Program, target mem.Outcome) []string {
	w := newWalker(m, size, func(st []int64) bool { return m.outcome(st) == target })
	if !w.run() {
		return nil
	}
	lines := make([]string, len(w.path))
	for i, a := range w.path {
		lines[i] = a.describe(mp)
	}
	return lines
}
