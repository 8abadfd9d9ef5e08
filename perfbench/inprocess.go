package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"tricheck/internal/core"
	"tricheck/internal/litmus"
)

// tallyExpect pins the verdict totals of one sweep.
type tallyExpect struct {
	Stacks, Verdicts, Bugs, Strict, Equivalent, Divergent int
	// HeadlineStack, when set, must report HeadlineBugs tests whose
	// specified outcome is a bug (the paper's 144-of-1,701 counting).
	HeadlineStack string
	HeadlineBugs  int
}

// check compares a sweep's results with the expectation.
func (e tallyExpect) check(rs []*core.SuiteResult) error {
	var t core.Tally
	headline := -1
	for _, r := range rs {
		t.Total += r.Tally.Total
		t.Bugs += r.Tally.Bugs
		t.Strict += r.Tally.Strict
		t.Equivalent += r.Tally.Equivalent
		t.Divergent += r.Tally.Divergent
		if r.Stack.Name() == e.HeadlineStack {
			headline = r.Tally.SpecifiedBugs
		}
	}
	got := tallyExpect{len(rs), t.Total, t.Bugs, t.Strict, t.Equivalent, t.Divergent, e.HeadlineStack, headline}
	if e.HeadlineStack == "" {
		got.HeadlineBugs = e.HeadlineBugs
	}
	if got != e {
		return fmt.Errorf("tallies %+v, want %+v", got, e)
	}
	return nil
}

// sweepSpec is one in-process workload: every operation sweeps the
// inputs on an engine, cold (fresh engine) and warm (the previous
// operation's engine) in turn.
type sweepSpec struct {
	backend core.Backend
	// inputs generates one operation's tests and stacks.
	inputs func() ([]*litmus.Test, []core.Stack, error)
	expect tallyExpect
}

// paperSweep is the CLI's default sweep: the paper suite over the
// Figure 15 stack matrix on the axiomatic backend.
var paperSweep = sweepSpec{
	backend: core.BackendUHB,
	inputs: func() ([]*litmus.Test, []core.Stack, error) {
		stacks, err := core.SelectStacks("both", "both")
		return litmus.PaperSuite(), stacks, err
	},
	expect: tallyExpect{
		Stacks: 28, Verdicts: 47628, Bugs: 990, Strict: 16239, Equivalent: 30399,
		HeadlineStack: "riscv-base+a-intuitive+nMM/riscv-curr", HeadlineBugs: 144,
	},
}

// opsimFamilies are the families the operational cross-check sweeps;
// iriw is left out because one family takes minutes.
var opsimFamilies = []string{"mp", "sb", "lb", "corr", "co-rsdwi", "wrc"}

// opsimBoth cross-checks every verdict with the operational simulators.
var opsimBoth = sweepSpec{
	backend: core.BackendBoth,
	inputs: func() ([]*litmus.Test, []core.Stack, error) {
		tests, err := familyTests(opsimFamilies)
		if err != nil {
			return nil, nil, err
		}
		stacks, err := core.SelectStacks("base", "both")
		return tests, stacks, err
	},
	expect: tallyExpect{Stacks: 14, Verdicts: 11340, Bugs: 540, Strict: 1812, Equivalent: 8988},
}

// familyTests expands the named litmus families in order.
func familyTests(names []string) ([]*litmus.Test, error) {
	var tests []*litmus.Test
	for _, n := range names {
		shape := litmus.ShapeByName(n)
		if shape == nil {
			return nil, fmt.Errorf("unknown family %q", n)
		}
		tests = append(tests, shape.Generate()...)
	}
	return tests, nil
}

// sweepCounts are the deterministic work counts of one sweep.
type sweepCounts struct {
	Verdicts    int    `json:"verdicts"`
	Executions  uint64 `json:"executions"`
	Candidates  int    `json:"candidates"`
	Graphs      int    `json:"graphs"`
	OpsimStates int    `json:"opsim_states"`
	Divergences uint64 `json:"divergences"`
}

// engineCounts totals the engine's cost matrix and counters.
func engineCounts(eng *core.Engine) sweepCounts {
	c := sweepCounts{Executions: eng.Executions(), Divergences: eng.Divergences()}
	for _, jc := range eng.CostMatrix() {
		c.Candidates += jc.Candidates
		c.Graphs += jc.Graphs
	}
	return c
}

// setupReps is how many extra set-ups an in-process run times before
// its first operation.
const setupReps = 10

// runSweepWorkload runs spec's operations, alternating cold and warm,
// until c.seconds have passed (and at least one of each has run).
func runSweepWorkload(c config, spec sweepSpec) (*outcome, error) {
	rng := rand.New(rand.NewSource(c.seed))
	out := &outcome{}
	lat := map[bool][]float64{} // keyed by cold
	var setups, rates, opRates, cpuPer, mallocsPer []float64
	var gcCycles uint32
	first := map[bool]*sweepCounts{}
	var eng *core.Engine
	// Set-up takes milliseconds, so it is also timed on its own a few
	// times before the loop for a steadier median. Every timed set-up
	// starts from a collected heap, so it never pays for collecting the
	// previous sweep's garbage.
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, _, err := spec.inputs(); err != nil {
			return nil, err
		}
		core.NewEngine()
		setups = append(setups, time.Since(t0).Seconds())
	}
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		cold := i%2 == 0
		runtime.GC()
		t0 := time.Now()
		tests, stacks, err := spec.inputs()
		if err != nil {
			return nil, err
		}
		rng.Shuffle(len(tests), func(a, b int) { tests[a], tests[b] = tests[b], tests[a] })
		rng.Shuffle(len(stacks), func(a, b int) { stacks[a], stacks[b] = stacks[b], stacks[a] })
		if cold {
			eng = core.NewEngine()
		}
		setup := time.Since(t0)
		before := engineCounts(eng)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := selfCPU()
		t1 := time.Now()
		rs, err := eng.SweepStreamBackend(context.Background(), tests, stacks, 0, spec.backend, nil)
		d := time.Since(t1)
		cpu := selfCPU() - cpu0
		runtime.ReadMemStats(&m1)
		out.attempted++
		if err != nil {
			out.fail("operation %d: sweep: %v", i, err)
			continue
		}
		n := spec.expect.Verdicts
		lat[cold] = append(lat[cold], ms(d))
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(n)/d.Seconds())
		cpuPer = append(cpuPer, us(cpu)/float64(n))
		mallocsPer = append(mallocsPer, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		gcCycles += m1.NumGC - m0.NumGC
		opRates = append(opRates, 1/(setup+d).Seconds())
		if err := spec.expect.check(rs); err != nil {
			out.fail("operation %d: %v", i, err)
			continue
		}
		after := engineCounts(eng)
		counts := sweepCounts{
			Verdicts:    n,
			Executions:  after.Executions - before.Executions,
			Candidates:  after.Candidates - before.Candidates,
			Graphs:      after.Graphs - before.Graphs,
			Divergences: after.Divergences - before.Divergences,
		}
		for _, sr := range rs {
			for _, r := range sr.Results {
				if r.Opsim != nil {
					counts.OpsimStates += r.Opsim.States
				}
			}
		}
		// Every job of an in-process sweep executes (there is no memo),
		// and the same inputs in another order do the same work.
		if counts.Executions != uint64(n) {
			out.fail("operation %d: %d executions for %d verdicts", i, counts.Executions, n)
			continue
		}
		if f := first[cold]; f == nil {
			first[cold] = &counts
		} else if !reflect.DeepEqual(*f, counts) {
			out.fail("operation %d: work counts %+v differ from %+v", i, counts, *f)
		}
	}
	if len(lat[true]) == 0 || len(lat[false]) == 0 {
		return nil, fmt.Errorf("no cold or warm sweep completed (%d failed)", out.failed)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out.metrics = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"verdicts_per_s":     {median(rates), "1/s"},
		"cpu_us_per_verdict": {median(cpuPer), "us"},
		"peak_rss_mb":        {rss, "MB"},
		"requests_per_s":     {median(opRates), "1/s"},
		"cold_p50_ms":        {median(lat[true]), "ms"},
		"cold_p95_ms":        {quantile(lat[true], 0.95), "ms"},
		"warm_p50_ms":        {median(lat[false]), "ms"},
		"warm_p95_ms":        {quantile(lat[false], 0.95), "ms"},
	}
	out.samples = map[string]int{"cold": len(lat[true]), "warm": len(lat[false]), "setup": len(setups)}
	out.counts = map[string]any{"cold_sweep": first[true], "warm_sweep": first[false]}
	out.observed = map[string]any{"mallocs_per_verdict": median(mallocsPer), "gc_cycles": gcCycles}
	return out, nil
}
