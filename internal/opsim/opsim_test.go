package opsim

import (
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// crossCheck asserts that the operational WR machine and the axiomatic WR
// µhb model agree exactly on the observable outcome set of a program.
func crossCheck(t *testing.T, name string, p *isa.Program) {
	t.Helper()
	op := New(p).Outcomes()
	ax, err := uspec.WR(uspec.Curr).Evaluate(p)
	if err != nil {
		t.Fatalf("%s: axiomatic: %v", name, err)
	}
	for o := range op {
		if !ax.Observable[o] {
			t.Errorf("%s: outcome %q reachable operationally but forbidden axiomatically", name, o)
		}
	}
	for o := range ax.Observable {
		if !op[o] {
			t.Errorf("%s: outcome %q observable axiomatically but unreachable operationally", name, o)
		}
	}
}

// TestOperationalMatchesAxiomaticBase cross-checks every paper shape in a
// few representative memory-order variants under the Base mapping.
func TestOperationalMatchesAxiomaticBase(t *testing.T) {
	variants := map[string][][]c11.Order{
		"mp": {
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
			{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx},
			{c11.SC, c11.SC, c11.SC, c11.SC},
		},
		"sb": {
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
			{c11.SC, c11.SC, c11.SC, c11.SC},
		},
		"wrc": {
			{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx},
			{c11.SC, c11.SC, c11.SC, c11.SC, c11.SC},
		},
		"corr": {
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
			{c11.Rlx, c11.Rlx, c11.Acq, c11.Acq},
		},
		"rwc": {
			{c11.SC, c11.Acq, c11.SC, c11.SC, c11.SC},
		},
		"lb": {
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
		},
		"s": {
			{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx},
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
		},
		"2+2w": {
			{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx},
		},
	}
	for shapeName, orderSets := range variants {
		shape := litmus.ShapeByName(shapeName)
		if shape == nil {
			t.Fatalf("unknown shape %s", shapeName)
		}
		for _, orders := range orderSets {
			tst := shape.Instantiate(orders)
			prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
			if err != nil {
				t.Fatal(err)
			}
			crossCheck(t, tst.Name, prog)
		}
	}
}

// TestOperationalMatchesAxiomaticAtomics cross-checks AMO-based programs
// (the Base+A mapping).
func TestOperationalMatchesAxiomaticAtomics(t *testing.T) {
	shapes := []struct {
		shape  *litmus.Shape
		orders []c11.Order
	}{
		{litmus.MP, []c11.Order{c11.Rlx, c11.Rel, c11.Acq, c11.Rlx}},
		{litmus.MP, []c11.Order{c11.SC, c11.Rlx, c11.SC, c11.SC}},
		{litmus.SB, []c11.Order{c11.SC, c11.SC, c11.SC, c11.SC}},
		{litmus.WRC, []c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx}},
		{litmus.CoRR, []c11.Order{c11.Rlx, c11.Rlx, c11.Acq, c11.SC}},
	}
	for _, c := range shapes {
		tst := c.shape.Instantiate(c.orders)
		prog, err := compile.Compile(compile.RISCVAtomicsIntuitive, tst.Prog)
		if err != nil {
			t.Fatal(err)
		}
		crossCheck(t, tst.Name+"/base+a", prog)
	}
}

// TestOperationalIRIW: on the MCA WR machine the IRIW outcome is
// unreachable even with relaxed accesses that carry no fences at all —
// store atomicity alone forbids it... for in-order cores where the two
// reads of each reader execute in program order.
func TestOperationalIRIW(t *testing.T) {
	tst := litmus.IRIW.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	out := New(prog).Outcomes()
	if out[tst.Specified] {
		t.Error("IRIW reachable on the operational MCA machine")
	}
	crossCheck(t, tst.Name, prog)
}

// TestOperationalStoreBufferingReachable: the one relaxation WR has (W→R)
// is operationally visible: SB's weak outcome is reachable.
func TestOperationalStoreBufferingReachable(t *testing.T) {
	tst := litmus.SB.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	out := New(prog).Outcomes()
	if !out[tst.Specified] {
		t.Error("store buffering unreachable on a machine with store buffers")
	}
}

// TestOperationalAMOAtomicity: concurrent fetch-and-adds never lose
// updates operationally.
func TestOperationalAMOAtomicity(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 1, "x")
	p.Add(0, riscv.AMOAdd(0, mem.Const(1), mem.Const(0), false, false, false))
	p.Add(1, riscv.AMOAdd(0, mem.Const(1), mem.Const(0), false, false, false))
	p.Observe(0, 0, "a")
	p.Observe(1, 0, "b")
	p.Mem().AddMemObserver(0, "x")
	out := New(p).Outcomes()
	want := map[mem.Outcome]bool{"a=0; b=1; x=2": true, "a=1; b=0; x=2": true}
	if len(out) != len(want) {
		t.Fatalf("outcomes %v, want %v", out, want)
	}
	for o := range want {
		if !out[o] {
			t.Errorf("missing %q", o)
		}
	}
}

// TestOperationalDrainInterleavings: a buffered store becomes visible at a
// nondeterministic time: both orders of an MP handoff are reachable
// without fences.
func TestOperationalDrainInterleavings(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(1)))
	p.Add(1, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.LW(1, mem.Const(0)))
	p.Observe(1, 0, "r0")
	p.Observe(1, 1, "r1")
	out := New(p).Outcomes()
	// FIFO drain forbids r0=1,r1=0 but everything else is reachable.
	if out["r0=1; r1=0"] {
		t.Error("FIFO store buffer violated")
	}
	for _, o := range []mem.Outcome{"r0=0; r1=0", "r0=0; r1=1", "r0=1; r1=1"} {
		if !out[o] {
			t.Errorf("missing reachable outcome %q", o)
		}
	}
	sim := New(p)
	sim.Outcomes()
	if sim.States == 0 {
		t.Error("no states explored")
	}
}

// TestAddressNotALocationPanics: a register-carried address that names no
// location stops the exploration instead of indexing into a neighbouring
// part of the flat state.
func TestAddressNotALocationPanics(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.SW(mem.Const(-1), mem.Const(1)))
	p.Add(1, riscv.LW(0, mem.Const(1)))
	p.Add(1, riscv.LW(1, mem.FromReg(0)))
	p.Observe(1, 1, "r1")
	for _, sim := range []Enumerator{New(p), NewTSO(p), NewNMCA(p)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: no panic on address -1", sim)
				}
			}()
			sim.Outcomes()
		}()
	}
}
