package opsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// randomProgram builds a small random RISC-V litmus program: 2–3 threads,
// 1–4 instructions each, over 2 locations, drawing from loads, stores, the
// full fence matrix and AMOs.
func randomProgram(rng *rand.Rand) *isa.Program {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	nThreads := 2 + rng.Intn(2)
	reg := 0
	for t := 0; t < nThreads; t++ {
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			loc := mem.Const(int64(rng.Intn(2)))
			val := mem.Const(int64(1 + rng.Intn(2)))
			switch rng.Intn(6) {
			case 0, 1:
				p.Add(t, riscv.LW(reg, loc))
				p.Observe(t, reg, obsLabel(reg))
				reg++
			case 2, 3:
				p.Add(t, riscv.SW(val, loc))
			case 4:
				classes := []isa.Class{isa.ClassR, isa.ClassW, isa.ClassRW}
				p.Add(t, riscv.Fence(classes[rng.Intn(3)], classes[rng.Intn(3)]))
			case 5:
				switch rng.Intn(3) {
				case 0:
					p.Add(t, riscv.AMOLoad(reg, loc, rng.Intn(2) == 0, false, false))
					p.Observe(t, reg, obsLabel(reg))
					reg++
				case 1:
					p.Add(t, riscv.AMOStore(val, loc, false, rng.Intn(2) == 0, false))
				case 2:
					p.Add(t, riscv.AMOAdd(reg, val, loc, false, false, false))
					p.Observe(t, reg, obsLabel(reg))
					reg++
				}
			}
		}
	}
	p.Mem().AddMemObserver(0, "x")
	p.Mem().AddMemObserver(1, "y")
	return p
}

// withStoreAtomicAMOs returns p with one or two store-atomic (aq.rl)
// writing AMOs inserted at random positions. randomProgram never sets
// both bits, so without this pass the nMCA machine's SC-AMO paths go
// unfuzzed. It draws only after randomProgram's draws, so the pinned
// seed corpora keep generating the same base programs.
func withStoreAtomicAMOs(rng *rand.Rand, p *isa.Program) *isa.Program {
	reg := 0
	for _, th := range p.Instrs {
		for _, ins := range th {
			if ins.Dst >= reg {
				reg = ins.Dst + 1
			}
		}
	}
	type insert struct {
		t, pos int
		ins    isa.Instr
	}
	var adds []insert
	for k := 1 + rng.Intn(2); k > 0; k-- {
		t := rng.Intn(len(p.Instrs))
		pos := rng.Intn(len(p.Instrs[t]) + 1)
		loc := mem.Const(int64(rng.Intn(2)))
		val := mem.Const(int64(1 + rng.Intn(2)))
		ins := riscv.AMOStore(val, loc, true, true, false)
		if rng.Intn(2) == 0 {
			ins = riscv.AMOAdd(reg, val, loc, true, true, false)
			reg++
		}
		adds = append(adds, insert{t, pos, ins})
	}
	q := isa.NewProgram(isa.RISCV, 2, "x", "y")
	for t, th := range p.Instrs {
		for i := 0; i <= len(th); i++ {
			for _, a := range adds {
				if a.t == t && a.pos == i {
					q.Add(t, a.ins)
				}
			}
			if i < len(th) {
				q.Add(t, *th[i])
			}
		}
	}
	for _, o := range p.Mem().Observers {
		q.Observe(o.Thread, o.Reg, o.Label)
	}
	for _, a := range adds {
		if a.ins.Dst != mem.NoDst {
			q.Observe(a.t, a.ins.Dst, obsLabel(a.ins.Dst))
		}
	}
	for _, o := range p.Mem().MemObservers {
		q.Mem().AddMemObserver(o.Loc, o.Label)
	}
	return q
}

func obsLabel(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

// differential cross-checks one random program between the operational and
// axiomatic semantics of the given machine.
func differential(t *testing.T, rng *rand.Rand, model *uspec.Model, forwarding bool) bool {
	p := randomProgram(rng)
	sim := New(p)
	sim.Forwarding = forwarding
	op := sim.Outcomes()
	ax, err := model.Evaluate(p)
	if err != nil {
		t.Logf("axiomatic error: %v\n%s", err, p)
		return false
	}
	for o := range op {
		if !ax.Observable[o] {
			t.Logf("outcome %q reachable operationally, forbidden axiomatically on %s\n%s", o, model.FullName(), p)
			return false
		}
	}
	for o := range ax.Observable {
		if !op[o] {
			t.Logf("outcome %q observable axiomatically on %s, unreachable operationally\n%s", o, model.FullName(), p)
			return false
		}
	}
	return true
}

// TestFuzzDifferentialWR: random programs agree between the operational WR
// machine and the axiomatic WR model.
func TestFuzzDifferentialWR(t *testing.T) {
	f := func(seed int64) bool {
		return differential(t, rand.New(rand.NewSource(seed)), uspec.WR(uspec.Curr), false)
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzDifferentialTSO: the same with store-buffer forwarding against
// the TSO model.
func TestFuzzDifferentialTSO(t *testing.T) {
	f := func(seed int64) bool {
		return differential(t, rand.New(rand.NewSource(seed)), uspec.TSO(), true)
	}
	n := 120
	if testing.Short() {
		n = 25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceWitness: Trace returns a real interleaving for a reachable
// outcome and nil for an unreachable one.
func TestTraceWitness(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1)))
	p.Add(1, riscv.LW(1, mem.Const(0)))
	p.Observe(0, 0, "r0")
	p.Observe(1, 1, "r1")
	sim := New(p)
	trace := sim.Trace("r0=0; r1=0")
	if trace == nil {
		t.Fatal("SB outcome should be reachable; no trace found")
	}
	if len(trace) < 4 {
		t.Errorf("trace too short: %v", trace)
	}
	if got := sim.Trace("r0=7; r1=7"); got != nil {
		t.Errorf("impossible outcome traced: %v", got)
	}
}
