package uspec

import (
	"time"

	"tricheck/internal/isa"
	"tricheck/internal/mem"
	"tricheck/internal/obs"
	"tricheck/internal/uhb"
)

// Per-verdict phase timing histograms. Skeleton build and candidate
// enumeration are observed once per prepared evaluation (job
// granularity — two atomic-add observations against work that costs
// tens of microseconds to milliseconds). The overlay cycle check is the
// innermost loop: it is observed only under 1-in-N sampling
// (obs.SetCycleSampling), default off, so the PR-3 zero-allocation/
// zero-format verdict-path invariants hold with telemetry enabled.
const phaseHelp = "Per-verdict toolflow phase durations."

var (
	phaseSkeleton  = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "skeleton"))
	phaseEnumerate = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "enumerate"))
	phaseCycle     = obs.Default.Histogram("tricheck_verdict_phase_seconds", phaseHelp, nil, obs.L("phase", "cycle_check"))
)

// Prepared is a model × program pair compiled for repeated evaluation: the
// static µhb skeleton (node layout, pipeline/path order, execution-
// independent preserved program order, dependency and non-cumulative fence
// and AMO-annotation edges) is built exactly once, and every execution
// candidate is then checked by layering its dynamic edges (coherence,
// reads-from/from-reads, same-address refinements, cumulative closures)
// onto the skeleton through a pooled, resettable overlay.
//
// This is the verdict path: no uhb.Graph is materialized, no reason or
// label string is ever formatted, and steady-state evaluation performs no
// per-execution graph allocation. Diagnostics (Explain, witness graphs,
// DOT) copy the skeleton and one execution's overlay into a labelled
// uhb.Graph on demand; see Graph.
//
// A Prepared is NOT safe for concurrent use: the overlay and the dynamic
// builder's scratch buffers are shared across calls. Each worker of a
// sweep prepares (or borrows) its own.
type Prepared struct {
	m    *Model
	p    *isa.Program
	skel *uhb.Skeleton
	ov   *uhb.Overlay
	dyn  builder // dynamic-run template; x/ov bound per execution

	cov    Coverage // axiom attribution, accumulated across the evaluation
	cycBuf []uint32 // reused cycle-provenance buffer
}

// Prepare builds the static skeleton of p under the model's axioms and
// returns an evaluator that streams executions through it. Release the
// result with Close when the sweep is done so its overlay returns to the
// shared pool.
func (m *Model) Prepare(p *isa.Program) *Prepared {
	start := time.Now()
	C, K := m.layout(p)
	ev := p.Mem().Events()
	pr := &Prepared{m: m, p: p}
	sb := builder{m: m, p: p, ev: ev, C: C, K: K, cov: &pr.cov}
	sb.skel = uhb.AcquireSkeleton(len(ev) * K)
	sb.run()
	sb.skel.Freeze()
	// Post-dedup static attribution: the reasons that survived Freeze own
	// the skeleton's edges (emission already set the Fired bits above).
	sb.skel.ForEachEdge(func(_, _ int, reason uint32) {
		pr.cov.Edges |= axiomBit(Reason(reason))
	})
	phaseSkeleton.Observe(time.Since(start))
	pr.skel = sb.skel
	pr.ov = uhb.AcquireOverlay(sb.skel)
	pr.dyn = builder{m: m, p: p, ev: ev, C: C, K: K, cov: &pr.cov}
	return pr
}

// Coverage returns the axiom-attribution bitsets accumulated so far:
// static edges since Prepare, dynamic edges and witnessing cycles across
// every execution checked through this Prepared.
func (pr *Prepared) Coverage() Coverage { return pr.cov }

// ExecutionObservable reports whether execution x is observable on the
// model: whether skeleton + x's overlay is acyclic. The overlay is
// rebuilt per candidate (coverage attribution happens at emission) and
// its HasCycle repairs the topological order the previous candidates
// left behind. Only a forbidding cycle pays for the full DFS, which
// records provenance: the witnessing cycle, and therefore the axiom
// multiset OR-ed into the coverage Cycle bitset, depends only on the
// overlay's contents.
func (pr *Prepared) ExecutionObservable(x *mem.Execution) bool {
	pr.overlay(x)
	if pr.ov.HasCycle() {
		reasons, _ := pr.ov.HasCycleReasons(pr.cycBuf[:0])
		for _, r := range reasons {
			pr.cov.Cycle |= axiomBit(Reason(r))
		}
		pr.cycBuf = reasons
		return false
	}
	return true
}

// overlay resets the overlay and fills it with execution x's dynamic
// edges.
func (pr *Prepared) overlay(x *mem.Execution) {
	pr.ov.Reset(pr.skel)
	b := &pr.dyn
	b.x, b.ov = x, pr.ov
	b.run()
	b.x, b.ov = nil, nil
}

// Graph materializes the µhb graph of execution x for diagnostics
// (Explain, witnesses, DOT): the skeleton plus x's overlay, with reason
// strings and node labels. It is acyclic iff ExecutionObservable(x).
// Within a tier the first emitted reason of an edge wins; an edge both
// tiers emit keeps the reason of the earlier builder pass, which is what
// one pass over all axioms in builder order would have recorded.
func (pr *Prepared) Graph(x *mem.Execution) *uhb.Graph {
	pr.overlay(x)
	g := uhb.NewGraph(pr.skel.NumNodes())
	pr.dyn.label(g)
	pr.ov.ForEachDynamicEdge(func(from, to int, reason uint32) {
		r := Reason(reason)
		if s, ok := pr.skel.Reason(from, to); ok && Reason(s).passRank() <= r.passRank() {
			return // the static reason is added below
		}
		g.AddEdge(from, to, r.String())
	})
	pr.skel.ForEachEdge(func(from, to int, reason uint32) {
		g.AddEdge(from, to, Reason(reason).String())
	})
	return g
}

// Close returns the pooled overlay and skeleton. The Prepared must not be
// used after.
func (pr *Prepared) Close() {
	if pr.ov != nil {
		uhb.ReleaseOverlay(pr.ov)
		pr.ov = nil
	}
	if pr.skel != nil {
		uhb.ReleaseSkeleton(pr.skel)
		pr.skel = nil
	}
}

// Evaluate computes the observable outcome set of the prepared program —
// the Figure 6 step 3 body, sharing one skeleton and one overlay across
// the whole candidate enumeration.
func (pr *Prepared) Evaluate() (*Result, error) {
	start := time.Now()
	res := &Result{}
	// Outcomes are interned: the per-candidate bookkeeping runs on dense
	// ids against slices, and the outcome maps are built once at the end.
	// Ids are assigned in first-seen order, so the skip-if-known-
	// observable logic — and therefore the Graphs counter — is
	// bit-identical to the map-based loop.
	cache := mem.AcquireOutcomeCache(pr.p.Mem())
	defer mem.ReleaseOutcomeCache(cache)
	var obsv []bool
	// The innermost loop stays untimed unless cycle sampling is on: a
	// single atomic load per checked graph decides, and only every Nth
	// check pays for two monotonic clock reads.
	sampleN := uint64(obs.CycleSampling())
	err := mem.Enumerate(pr.p.Mem(), func(x *mem.Execution) bool {
		res.Candidates++
		_, id := cache.Lookup(x)
		if id == len(obsv) {
			obsv = append(obsv, false)
		}
		if obsv[id] {
			return true // this outcome is already known observable
		}
		res.Graphs++
		if sampleN > 0 && uint64(res.Graphs)%sampleN == 0 {
			t0 := time.Now()
			ok := pr.ExecutionObservable(x)
			phaseCycle.Observe(time.Since(t0))
			if ok {
				obsv[id] = true
			}
			return true
		}
		if pr.ExecutionObservable(x) {
			obsv[id] = true
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	outs := cache.Outcomes()
	res.All = make(map[mem.Outcome]bool, len(outs))
	res.Observable = make(map[mem.Outcome]bool, len(outs))
	for id, o := range outs {
		res.All[o] = true
		if obsv[id] {
			res.Observable[o] = true
		}
	}
	phaseEnumerate.Observe(time.Since(start))
	return res, nil
}

// find is the outcome-selection loop behind Model.Observable, Explain and
// ObservableGraph: among the candidate executions whose final state is
// want, it stops at the first observable one and otherwise settles on the
// last forbidden one. x is a copy of that execution, nil when want is not
// a candidate final state.
func (pr *Prepared) find(want mem.Outcome) (x *mem.Execution, observable bool, err error) {
	err = mem.Enumerate(pr.p.Mem(), func(c *mem.Execution) bool {
		if c.OutcomeOf() != want {
			return true
		}
		x, observable = c.Clone(), pr.ExecutionObservable(c)
		return !observable
	})
	if err == mem.ErrStopped {
		err = nil
	}
	return x, observable, err
}
