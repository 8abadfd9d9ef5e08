package opsim

import (
	"reflect"
	"sort"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// TestPinnedStatesOutcomesAndTraces pins, for fixed programs on every
// machine, the number of distinct states explored, the reachable outcome
// set and the witness Trace prints for one reachable outcome. The state
// count is persisted in memo entries ("states") and the witness in
// divergence reports, so a change to the state encoding or the order in
// which successors are generated must keep all three exactly.
func TestPinnedStatesOutcomesAndTraces(t *testing.T) {
	cases := []struct {
		name     string
		shape    *litmus.Shape
		order    c11.Order // every slot
		mapping  *compile.Mapping
		machine  func(*isa.Program) Enumerator
		states   int
		outcomes []mem.Outcome
		target   mem.Outcome
		trace    []string
	}{
		{
			name: "sb/tso", shape: litmus.SB, order: c11.Rlx, mapping: compile.RISCVBaseIntuitive,
			machine:  func(p *isa.Program) Enumerator { return NewTSO(p) },
			states:   34,
			outcomes: []mem.Outcome{"r0=0; r1=0", "r0=0; r1=1", "r0=1; r1=0", "r0=1; r1=1"},
			target:   "r0=0; r1=0",
			trace: []string{
				"T0: execute instruction 0",
				"T0: execute instruction 1",
				"T1: execute instruction 0",
				"T1: drain y=1 to memory",
				"T1: execute instruction 1",
				"T0: drain x=1 to memory",
			},
		},
		{
			name: "sb/sc", shape: litmus.SB, order: c11.Rlx, mapping: compile.RISCVBaseIntuitive,
			machine:  func(p *isa.Program) Enumerator { return NewSC(p) },
			states:   13,
			outcomes: []mem.Outcome{"r0=0; r1=1", "r0=1; r1=0", "r0=1; r1=1"},
			target:   "r0=1; r1=1",
			trace: []string{
				"T0: execute instruction 0",
				"T1: execute instruction 0",
				"T0: execute instruction 1",
				"T1: execute instruction 1",
			},
		},
		{
			name: "mp/wr", shape: litmus.MP, order: c11.Rlx, mapping: compile.RISCVBaseIntuitive,
			machine:  func(p *isa.Program) Enumerator { return New(p) },
			states:   23,
			outcomes: []mem.Outcome{"r0=0; r1=0", "r0=0; r1=1", "r0=1; r1=1"},
			target:   "r0=1; r1=1",
			trace: []string{
				"T0: execute instruction 0",
				"T0: drain x=1 to memory",
				"T0: execute instruction 1",
				"T0: drain y=1 to memory",
				"T1: execute instruction 0",
				"T1: execute instruction 1",
			},
		},
		{
			name: "wrc/wr", shape: litmus.WRC, order: c11.Rlx, mapping: compile.RISCVBaseIntuitive,
			machine: func(p *isa.Program) Enumerator { return New(p) },
			states:  61,
			outcomes: []mem.Outcome{
				"r0=0; r1=0; r2=0", "r0=0; r1=0; r2=1", "r0=0; r1=1; r2=0", "r0=0; r1=1; r2=1",
				"r0=1; r1=0; r2=0", "r0=1; r1=0; r2=1", "r0=1; r1=1; r2=1",
			},
		},
		{
			name: "iriw-sc-amo/nwr", shape: litmus.IRIW, order: c11.SC, mapping: compile.RISCVAtomicsIntuitive,
			machine: func(p *isa.Program) Enumerator { return NewNMCA(p) },
			states:  200,
			outcomes: []mem.Outcome{
				"r0=0; r1=0; r2=0; r3=0", "r0=0; r1=0; r2=0; r3=1", "r0=0; r1=0; r2=1; r3=0",
				"r0=0; r1=0; r2=1; r3=1", "r0=0; r1=1; r2=0; r3=0", "r0=0; r1=1; r2=0; r3=1",
				"r0=0; r1=1; r2=1; r3=0", "r0=0; r1=1; r2=1; r3=1", "r0=1; r1=0; r2=0; r3=0",
				"r0=1; r1=0; r2=0; r3=1", "r0=1; r1=0; r2=1; r3=1", "r0=1; r1=1; r2=0; r3=0",
				"r0=1; r1=1; r2=0; r3=1", "r0=1; r1=1; r2=1; r3=0", "r0=1; r1=1; r2=1; r3=1",
			},
			target: "r0=1; r1=1; r2=1; r3=1",
			trace: []string{
				"T0: execute instruction 0",
				"T0: commit atomic x=1 to every core",
				"T1: execute instruction 0",
				"T1: commit atomic y=1 to every core",
				"T2: execute instruction 0",
				"T2: execute instruction 1",
				"T3: execute instruction 0",
				"T3: execute instruction 1",
			},
		},
		{
			name: "wrc-sc-amo/nwr", shape: litmus.WRC, order: c11.SC, mapping: compile.RISCVAtomicsIntuitive,
			machine: func(p *isa.Program) Enumerator { return NewNMCA(p) },
			states:  67,
			outcomes: []mem.Outcome{
				"r0=0; r1=0; r2=0", "r0=0; r1=0; r2=1", "r0=0; r1=1; r2=0", "r0=0; r1=1; r2=1",
				"r0=1; r1=0; r2=0", "r0=1; r1=0; r2=1", "r0=1; r1=1; r2=1",
			},
		},
		{
			name: "wrc/nwr", shape: litmus.WRC, order: c11.Rlx, mapping: compile.RISCVBaseIntuitive,
			machine: func(p *isa.Program) Enumerator { return NewNMCA(p) },
			states:  296,
			outcomes: []mem.Outcome{
				"r0=0; r1=0; r2=0", "r0=0; r1=0; r2=1", "r0=0; r1=1; r2=0", "r0=0; r1=1; r2=1",
				"r0=1; r1=0; r2=0", "r0=1; r1=0; r2=1", "r0=1; r1=1; r2=0", "r0=1; r1=1; r2=1",
			},
			target: "r0=1; r1=1; r2=0",
			trace: []string{
				"T0: execute instruction 0",
				"T0: drain x=1 into the coherence order",
				"T1: apply x=1 (written by T0)",
				"T1: execute instruction 0",
				"T1: execute instruction 1",
				"T1: drain y=1 into the coherence order",
				"T0: apply y=1 (written by T1)",
				"T2: apply y=1 (written by T1)",
				"T2: execute instruction 0",
				"T2: execute instruction 1",
				"T2: apply x=1 (written by T0)",
			},
		},
	}
	for _, c := range cases {
		orders := make([]c11.Order, len(c.shape.Slots))
		for i := range orders {
			orders[i] = c.order
		}
		prog, err := compile.Compile(c.mapping, c.shape.Instantiate(orders).Prog)
		if err != nil {
			t.Fatal(err)
		}
		sim := c.machine(prog)
		out := sim.Outcomes()
		got := make([]mem.Outcome, 0, len(out))
		for o := range out {
			got = append(got, o)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !reflect.DeepEqual(got, c.outcomes) {
			t.Errorf("%s: outcomes %q, want %q", c.name, got, c.outcomes)
		}
		if n := sim.StateCount(); n != c.states {
			t.Errorf("%s: %d states, want %d", c.name, n, c.states)
		}
		if c.trace == nil {
			continue
		}
		if tr := sim.Trace(c.target); !reflect.DeepEqual(tr, c.trace) {
			t.Errorf("%s: Trace(%q) =\n%q\nwant\n%q", c.name, c.target, tr, c.trace)
		}
		// Outcomes and Trace keep no shared search state: a second call
		// of each answers the same.
		if len(sim.Outcomes()) != len(c.outcomes) || sim.StateCount() != c.states {
			t.Errorf("%s: a second Outcomes call changed the result", c.name)
		}
		if tr := sim.Trace(c.target); !reflect.DeepEqual(tr, c.trace) {
			t.Errorf("%s: a second Trace call changed the witness", c.name)
		}
	}
}
