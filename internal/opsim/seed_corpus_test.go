package opsim

import (
	"math/rand"
	"strings"
	"testing"

	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/isa"
	"tricheck/internal/isa/riscv"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/uspec"
)

// nmcaSeedCorpus pins fuzz seeds that have historically exercised the
// nMCA per-core visibility-order machinery (source-FIFO vs coherence-order
// interleavings). quick.Check draws fresh seeds every run; this corpus
// makes the interesting ones permanent regression tests.
var nmcaSeedCorpus = []int64{
	3,          // multi-writer same-location: coherence order vs apply order
	17,         // AMO mixed with plain stores across two locations
	42,         // fence-heavy: drain stalls interleaved with applies
	1701,       // the paper-suite size, for luck — reader-side reordering
	0x5eed,     // three threads, both locations written concurrently
	0xf15e15,   // Figure 15 family density: writes racing two readers
	987654321,  // long per-thread programs, deep apply backlogs
	1145141919, // AMO release flushing against pending applies
}

// TestNMCASeedCorpus replays the pinned seeds through the same
// operational/axiomatic differential as TestFuzzDifferentialNMCA.
func TestNMCASeedCorpus(t *testing.T) {
	for _, seed := range nmcaSeedCorpus {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		op := NewNMCA(p).Outcomes()
		ax, err := uspec.NWR(uspec.Curr).Evaluate(p)
		if err != nil {
			t.Fatalf("seed %d: axiomatic: %v\n%s", seed, err, p)
		}
		for o := range op {
			if !ax.Observable[o] {
				t.Errorf("seed %d: outcome %q reachable operationally, forbidden axiomatically on nWR\n%s", seed, o, p)
			}
		}
		for o := range ax.Observable {
			if !op[o] {
				t.Errorf("seed %d: outcome %q observable axiomatically on nWR, unreachable operationally\n%s", seed, o, p)
			}
		}
	}
}

// wrSeedCorpus pins seeds of the WR and TSO differentials
// (TestFuzzDifferentialWR/TSO) that once exposed an axiomatic defect.
var wrSeedCorpus = []int64{
	-4126572922277777536, // TSO: a load forwards from the newer of two same-address stores
	17266,                // TSO: the same forwarding pattern behind a third thread's reads
	18005,                // TSO: two same-address stores, then a forwarded load and a load of x
}

// TestWRSeedCorpus replays the pinned seeds through the WR and TSO
// differentials.
func TestWRSeedCorpus(t *testing.T) {
	for _, seed := range wrSeedCorpus {
		if !differential(t, rand.New(rand.NewSource(seed)), uspec.WR(uspec.Curr), false) {
			t.Errorf("seed %d: WR operational and axiomatic outcome sets differ", seed)
		}
		if !differential(t, rand.New(rand.NewSource(seed)), uspec.TSO(), true) {
			t.Errorf("seed %d: TSO operational and axiomatic outcome sets differ", seed)
		}
	}
}

// scAMOSeedCorpus pins seeds of the store-atomic nWR differential
// (TestFuzzDifferentialNMCAStoreAtomic) that once exposed an nMCA
// simulator defect.
var scAMOSeedCorpus = []int64{
	2413680265607820015,  // loads ran ahead of a pending SC write's read part
	-7464138030313031125, // the same, with plain and SC fetch-adds around it
	597119436792391717,   // an SC fetch-add's read waited for its commit conditions
	-658439647438458101,  // a load read past its own AMO write before it drained
}

// TestSCAMOSeedCorpus replays the pinned seeds through the nWR
// differential.
func TestSCAMOSeedCorpus(t *testing.T) {
	for _, seed := range scAMOSeedCorpus {
		rng := rand.New(rand.NewSource(seed))
		if !nwrAgrees(t, withStoreAtomicAMOs(rng, randomProgram(rng))) {
			t.Errorf("seed %d: nWR operational and axiomatic outcome sets differ", seed)
		}
	}
}

// TestTSOForwardFromNewerStore is the handcrafted companion to
// wrSeedCorpus. T0 buffers two stores to x and its load of x forwards
// from the newer one, so the older store need not have drained when the
// load performs; T0's load of y can then read 0 while T1, whose fence
// drains its store of y, still reads x=0. The axiomatic model used to
// order the older store's visibility before the load
// (sb-same-addr-drain fired for every po-earlier same-address store the
// load did not read), which forbade this outcome.
func TestTSOForwardFromNewerStore(t *testing.T) {
	p := isa.NewProgram(isa.RISCV, 2, "x", "y")
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.SW(mem.Const(1), mem.Const(0)))
	p.Add(0, riscv.LW(0, mem.Const(0)))
	p.Add(0, riscv.LW(1, mem.Const(1)))
	p.Add(1, riscv.SW(mem.Const(1), mem.Const(1)))
	p.Add(1, riscv.Fence(isa.ClassRW, isa.ClassRW))
	p.Add(1, riscv.LW(2, mem.Const(0)))
	p.Observe(0, 0, "r0")
	p.Observe(0, 1, "r1")
	p.Observe(1, 2, "r2")
	const target mem.Outcome = "r0=1; r1=0; r2=0"
	if NewTSO(p).Trace(target) == nil {
		t.Fatalf("%q unreachable on the operational TSO machine", target)
	}
	ax, err := uspec.TSO().Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ax.Observable[target] {
		t.Errorf("%q forbidden on the axiomatic TSO model", target)
	}
	op := NewTSO(p).Outcomes()
	if len(op) != len(ax.Observable) {
		t.Errorf("operational outcomes %v, axiomatic %v", op, ax.Observable)
	}
	for o := range op {
		if !ax.Observable[o] {
			t.Errorf("%q reachable operationally, forbidden axiomatically", o)
		}
	}
}

// TestNMCAVisibilityOrderEdge is the handcrafted companion to the seed
// corpus: the WRC visibility-order edge the paper's Figure 15 family
// exercises (§5.1.1). Under nMCA a write can be applied at one reader
// core before another, so causality leaks through non-cumulative fences;
// the test pins the full outcome set against the axiomatic nWR model and
// demands an operational trace witness for the causality violation.
func TestNMCAVisibilityOrderEdge(t *testing.T) {
	tst := litmus.WRC.Instantiate([]c11.Order{c11.Rlx, c11.Rlx, c11.Rel, c11.Acq, c11.Rlx})
	prog, err := compile.Compile(compile.RISCVBaseIntuitive, tst.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if !crossCheckNMCA(t, tst.Name, prog) {
		return
	}
	wit := NewNMCA(prog).Trace(tst.Specified)
	if len(wit) == 0 {
		t.Fatal("no operational trace witness for the WRC visibility-order outcome")
	}
	// The witness must be a genuine nMCA schedule: the violation requires
	// a per-core apply step (a write visible at one core, pending at
	// another) — a purely drain/execute schedule is the MCA machine.
	sawApply := false
	for _, line := range wit {
		if strings.Contains(line, ": apply ") {
			sawApply = true
			break
		}
	}
	if !sawApply {
		t.Errorf("trace witness has no per-core apply step — not an nMCA schedule:\n%v", wit)
	}
	// The same outcome must be unreachable on the MCA machine, so the
	// witness is specifically about non-multi-copy-atomicity.
	if New(prog).Trace(tst.Specified) != nil {
		t.Error("MCA machine also reaches the outcome — the edge is not visibility-order specific")
	}
}
