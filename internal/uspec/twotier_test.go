package uspec

import (
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
)

// sampledSuite returns every stride-th test of the paper suite.
func sampledSuite(stride int) []*litmus.Test {
	suite := litmus.PaperSuite()
	var out []*litmus.Test
	for i := 0; i < len(suite); i += stride {
		out = append(out, suite[i])
	}
	return out
}

// oracleModels is the model spread the equivalence tests sweep: every
// relaxation axis and both MCM variants, including the cache-protocol
// topology and the cumulative-fence/lazy-release (Ours) semantics.
func oracleModels() []*Model {
	return []*Model{
		WR(Curr), RWR(Curr), RWM(Curr), RMM(Curr), NWR(Curr), NMM(Curr), A9like(Curr),
		RMM(Ours), NMM(Ours), A9like(Ours),
		SCProof(), AlphaLike(), PowerA9(),
	}
}

// TestTwoTierMatchesMaterializedGraph is the skeleton/overlay equivalence
// property: for every candidate execution of a sampled paper-suite slice,
// on every model, the two-tier verdict (the overlay's carried-order
// HasCycle) must equal a plain DFS over the materialized graph of the
// same execution (Prepared.Graph(x).Acyclic).
func TestTwoTierMatchesMaterializedGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive execution sweep is not short")
	}
	tests := sampledSuite(131)
	mappings := []*compile.Mapping{compile.RISCVBaseIntuitive, compile.RISCVAtomicsRefined}
	for _, tst := range tests {
		for _, mp := range mappings {
			prog, err := compile.Compile(mp, tst.Prog)
			if err != nil {
				t.Fatalf("compile %s: %v", tst.Name, err)
			}
			for _, m := range oracleModels() {
				pr := m.Prepare(prog)
				execs := 0
				err := mem.Enumerate(prog.Mem(), func(x *mem.Execution) bool {
					execs++
					fast := pr.ExecutionObservable(x)
					slow := pr.Graph(x).Acyclic()
					if fast != slow {
						t.Errorf("%s on %s+%s, execution %s: two-tier=%v oracle=%v",
							tst.Name, mp.Name, m.FullName(), x, fast, slow)
						return false
					}
					return true
				})
				pr.Close()
				if err != nil && err != mem.ErrStopped {
					t.Fatalf("%s on %s: %v", tst.Name, m.FullName(), err)
				}
				if execs == 0 {
					t.Fatalf("%s on %s: no executions enumerated", tst.Name, m.FullName())
				}
			}
		}
	}
}

// TestPreparedGraphCrossTierReasons checks how Prepared.Graph merges the
// tiers. Its edges are exactly the skeleton's plus the overlay's, and an
// edge both tiers emit keeps the reason of the earlier builder pass. Two
// such collisions are pinned, each against a static reason that a
// static-first merge would wrongly keep: a same-address W→W pair also
// ordered by fence rw,w (ppo runs before fences), and an rf edge also
// covered by sc-order (values runs before amoBits).
func TestPreparedGraphCrossTierReasons(t *testing.T) {
	mpTest := litmus.MPAddrDep.Instantiate([]c11.Order{c11.Rel, c11.Rel, c11.Rlx, c11.Acq})
	mpProg, err := compile.Compile(compile.RISCVAtomicsRefined, mpTest.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{NMM(Ours), A9like(Curr), WR(Curr)} {
		pr := m.Prepare(mpProg)
		checked := 0
		err := mem.Enumerate(mpProg.Mem(), func(x *mem.Execution) bool {
			checked++
			g := pr.Graph(x) // leaves the overlay populated for x
			type edge struct{ from, to int }
			union := map[edge]bool{}
			pr.skel.ForEachEdge(func(from, to int, _ uint32) { union[edge{from, to}] = true })
			pr.ov.ForEachDynamicEdge(func(from, to int, _ uint32) { union[edge{from, to}] = true })
			if len(union) != g.NumEdges() {
				t.Errorf("%s: union has %d distinct edges, graph %d", m.FullName(), len(union), g.NumEdges())
				return false
			}
			for e := range union {
				if !g.HasEdge(e.from, e.to) {
					t.Errorf("%s: tiered edge (%d,%d) missing from graph", m.FullName(), e.from, e.to)
					return false
				}
			}
			return checked < 40 // bound the exhaustive sweep
		})
		pr.Close()
		if err != nil && err != mem.ErrStopped {
			t.Fatal(err)
		}
	}

	// T0: sw x; fence rw,w; sw x — nMM relaxes W→W, so ppo orders the
	// same-address pair dynamically while the fence orders it statically.
	wwProg := isa.NewProgram(isa.RISCV, 1, "x")
	wwProg.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	wwProg.Add(0, riscv.Fence(isa.ClassRW, isa.ClassW))
	wwProg.Add(0, riscv.SW(mem.Const(2), mem.Const(0)))
	// T0: amoswap.aq.rl x; amoswap.aq.rl x — the second reads the first:
	// rf is dynamic, the SC-AMO pair order is static.
	scProg := isa.NewProgram(isa.RISCV, 1, "x")
	scProg.Add(0, riscv.AMOSwap(0, mem.Const(1), mem.Const(0), true, true, false))
	scProg.Add(0, riscv.AMOSwap(1, mem.Const(2), mem.Const(0), true, true, false))
	for _, c := range []struct {
		name         string
		p            *isa.Program
		x            func(*mem.Execution) bool
		edge         func(b *builder) (from, to int)
		static, want string
	}{
		{"ww-fence", wwProg, func(*mem.Execution) bool { return true },
			func(b *builder) (int, int) { return b.visTo(0, 0), b.visTo(2, 0) },
			"fence[rw,w;plain]-WW", "ppo-WW"},
		{"rf-sc-order", scProg, func(x *mem.Execution) bool { return x.RF[1] == 0 },
			func(b *builder) (int, int) { return b.visTo(0, 0), b.perform(1) },
			"sc-order", "rf"},
	} {
		m := NMM(Curr)
		x := executionWhere(t, c.p, c.x)
		pr := m.Prepare(c.p)
		from, to := c.edge(&pr.dyn)
		g := pr.Graph(x)
		if r, ok := pr.skel.Reason(from, to); !ok || Reason(r).String() != c.static {
			t.Errorf("%s: static reason = %v,%v, want %q", c.name, Reason(r), ok, c.static)
		}
		dynamic := false
		pr.ov.ForEachDynamicEdge(func(f, t int, _ uint32) { dynamic = dynamic || f == from && t == to })
		if !dynamic {
			t.Errorf("%s: edge (%d,%d) is not in the overlay", c.name, from, to)
		}
		if got := g.Reason(from, to); got != c.want {
			t.Errorf("%s: %s --> %s rendered %q, want %q", c.name, g.Label(from), g.Label(to), got, c.want)
		}
		pr.Close()
	}
}

// TestVerdictPathFormatsNoDiagnostics pins the lazy-diagnostics contract:
// a full Evaluate — skeleton construction included — must not format a
// single reason or label string. Explain, by contrast, must.
func TestVerdictPathFormatsNoDiagnostics(t *testing.T) {
	// Cover cumulative fences, AMO annotations and nMCA visibility: the
	// refined atomics mapping on NMM(Ours) exercises every dynamic pass.
	tst := litmus.WRC.Instantiate([]c11.Order{c11.SC, c11.SC, c11.Rel, c11.Acq, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVAtomicsRefined, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Model{NMM(Ours), A9like(Curr), WR(Curr)} {
		before := DiagnosticFormats()
		if _, err := m.Evaluate(prog); err != nil {
			t.Fatal(err)
		}
		if got := DiagnosticFormats() - before; got != 0 {
			t.Errorf("%s: verdict path formatted %d diagnostic strings, want 0", m.FullName(), got)
		}
	}
	// Sanity: the diagnostics path does format.
	before := DiagnosticFormats()
	if _, _, err := NMM(Ours).Explain(prog, tst.Specified); err != nil {
		t.Fatal(err)
	}
	if DiagnosticFormats() == before {
		t.Error("Explain formatted no diagnostics — counter not wired")
	}
}

// TestExplainPinnedCycle pins the deterministic cycle FindCycle reports
// for a known forbidden execution: mp with all-relaxed orders is forbidden
// on the strong WR pipeline, and the explanation must name exactly the
// rf → ppo-RR → fr → ppo-WW cycle.
func TestExplainPinnedCycle(t *testing.T) {
	tst := litmus.MP.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rlx, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	obs, why, err := WR(Curr).Explain(prog, tst.Specified)
	if err != nil {
		t.Fatal(err)
	}
	if obs {
		t.Fatal("mp must be forbidden on WR")
	}
	const want = "forbidden on WR/riscv-curr: cycle " +
		"T0.i1.VisibleAll --[rf]--> T1.i0.Perform --[ppo-RR]--> " +
		"T1.i1.Perform --[fr]--> T0.i0.VisibleAll --[ppo-WW]--> T0.i1.VisibleAll"
	if why != want {
		t.Errorf("explanation drifted:\n got %q\nwant %q", why, want)
	}
}
