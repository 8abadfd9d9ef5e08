// Package opsim provides an operational (interleaving-based) simulator for
// the WR microarchitecture — the strongest Table 7 model: in-order cores,
// a FIFO store buffer per core without forwarding, and multi-copy-atomic
// memory. It exhaustively explores every interleaving of instruction
// execution and store-buffer drain events and collects the reachable final
// states.
//
// Its purpose is cross-validation: internal/uspec decides observability
// axiomatically (µhb graph acyclicity), opsim decides it operationally.
// On the WR model the two semantics must agree exactly — the
// TestOperationalMatchesAxiomatic tests check outcome-set equality in both
// directions, which exercises the rf/fr/ws/fence/AMO axioms against an
// independent implementation.
package opsim

import (
	"tricheck/internal/isa"
	"tricheck/internal/mem"
)

// Simulator explores a program on the operational WR (or, with
// Forwarding, TSO) machine. Its flat state (see frame) appends the
// memory, one word per location, to the shared layout.
type Simulator struct {
	frame
	memOff int
	out    map[mem.Outcome]bool
	// Forwarding lets plain loads read the newest same-address entry of
	// the local store buffer instead of stalling — turning the WR machine
	// into an x86-TSO-like one (cross-checked against uspec.TSO).
	Forwarding bool
	// WriteThrough retires stores directly to memory instead of the store
	// buffer. With in-order cores and MCA memory the buffer was the only
	// relaxation, so the machine becomes sequentially consistent
	// (cross-checked against the no-relaxations uspec SC config).
	WriteThrough bool
	// States counts distinct explored configurations (diagnostics).
	States int
}

// New returns a simulator for the program on the WR machine.
func New(p *isa.Program) *Simulator {
	s := &Simulator{frame: newFrame(p)}
	s.memOff = s.alloc(p.Mem().NumLocs)
	return s
}

// NewTSO returns a simulator with store-buffer forwarding enabled.
func NewTSO(p *isa.Program) *Simulator {
	s := New(p)
	s.Forwarding = true
	return s
}

// NewSC returns a write-through simulator: the sequentially consistent
// machine of the no-relaxations µspec baseline.
func NewSC(p *isa.Program) *Simulator {
	s := New(p)
	s.WriteThrough = true
	return s
}

// Outcomes exhaustively explores all interleavings and returns the set of
// reachable final states (register observers plus final memory observers,
// in the same canonical form as the axiomatic side). The visited set is
// dropped on return; later calls return the same set.
func (s *Simulator) Outcomes() map[mem.Outcome]bool {
	if s.out == nil {
		s.out, s.States = explore(s, s.size)
	}
	return s.out
}

// Trace searches for an interleaving reaching the target outcome and
// returns it as a list of human-readable actions, or nil if unreachable.
// It explores with its own visited set.
func (s *Simulator) Trace(target mem.Outcome) []string {
	return trace(s, s.size, s.p.Mem(), target)
}

// successors generates, per thread, a store-buffer drain and then the
// execution of the next instruction unless it is blocked.
func (s *Simulator) successors(st, next []int64, emit func(action) bool) bool {
	for t := 0; t < s.n; t++ {
		if s.sbLen(st, t) > 0 {
			copy(next, st)
			l, v := s.sbPop(next, t)
			next[s.memOff+int(l)] = v
			if emit(action{kind: actDrainToMemory, thread: t, loc: l, val: v}) {
				return true
			}
		}
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

func (s *Simulator) outcome(st []int64) mem.Outcome {
	return s.finalOutcome(st, func(l mem.Loc) int64 { return st[s.memOff+int(l)] })
}

// sbHas reports whether thread t buffers a store to l.
func (s *Simulator) sbHas(st []int64, t int, l mem.Loc) bool {
	_, ok := s.sbNewest(st, t, l)
	return ok
}

// blocked implements the WR stall conditions:
//   - a load stalls while a same-address store sits in the local buffer
//     (no forwarding: it must read memory, and reading around the buffered
//     store would violate coherence);
//   - AMOs execute at memory: same-address entries must drain first, and a
//     release-annotated AMO waits for the whole buffer (prior stores must
//     be visible before it);
//   - a fence ordering W→R stalls until the buffer is empty (that is the
//     only ordering the in-order core and FIFO buffer do not already give).
func (s *Simulator) blocked(st []int64, t int, ins *isa.Instr) bool {
	switch {
	case ins.Op == isa.OpLoad:
		// Under forwarding the load reads the newest SB entry or memory.
		return !s.Forwarding && s.sbHas(st, t, s.loc(st, t, ins))
	case ins.Op.IsAMO():
		// AMOs execute at memory even under forwarding. A writing AMO
		// additionally flushes the store buffer first (like an x86 locked
		// operation): the machine preserves W→W order, so its write must
		// not become visible before earlier buffered stores.
		if ins.Op != isa.OpAMOLoad || ins.Rl {
			return s.sbLen(st, t) > 0
		}
		return s.sbHas(st, t, s.loc(st, t, ins))
	case ins.Op == isa.OpFence:
		return ins.Pred.HasW() && ins.Succ.HasR() && ins.Cum != isa.CumLW && s.sbLen(st, t) > 0
	}
	return false
}

func (s *Simulator) execute(st []int64, t int, ins *isa.Instr) {
	l := s.loc(st, t, ins)
	at := s.memOff + int(l)
	switch ins.Op {
	case isa.OpLoad:
		v := st[at]
		if s.Forwarding {
			if fv, ok := s.sbNewest(st, t, l); ok {
				v = fv
			}
		}
		s.setReg(st, t, ins.Dst, v)
	case isa.OpStore:
		if s.WriteThrough {
			st[at] = s.operand(st, t, ins.Data)
			break
		}
		s.sbPush(st, t, l, s.operand(st, t, ins.Data))
	case isa.OpAMOLoad:
		// Atomic load: reads memory; the write-back of the same value is
		// silent (see isa.OpAMOLoad).
		s.setReg(st, t, ins.Dst, st[at])
	case isa.OpAMOStore:
		// Atomic store: bypasses the store buffer (MCA anyway) and writes
		// memory directly.
		st[at] = s.operand(st, t, ins.Data)
	case isa.OpAMOSwap:
		if ins.Dst != mem.NoDst {
			s.setReg(st, t, ins.Dst, st[at])
		}
		st[at] = s.operand(st, t, ins.Data)
	case isa.OpAMOAdd:
		old := st[at]
		if ins.Dst != mem.NoDst {
			s.setReg(st, t, ins.Dst, old)
		}
		st[at] = old + s.operand(st, t, ins.Data)
	}
	// A fence's ordering effect is all in blocked().
}
