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
// DOT) still materialize a full Graph via Model.BuildGraph.
//
// A Prepared is NOT safe for concurrent use: the overlay and the dynamic
// builder's scratch buffers are shared across calls. Each worker of a
// sweep prepares (or borrows) its own.
type Prepared struct {
	m    *Model
	p    *isa.Program
	skel *uhb.Skeleton
	ov   *uhb.Overlay
	dyn  builder // tierDynamic template; x/ov bound per execution

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
	sb := builder{m: m, p: p, ev: ev, C: C, K: K, mode: tierStatic, cov: &pr.cov}
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
	pr.dyn = builder{m: m, p: p, ev: ev, C: C, K: K, mode: tierDynamic, cov: &pr.cov}
	return pr
}

// Coverage returns the axiom-attribution bitsets accumulated so far:
// static edges since Prepare, dynamic edges and witnessing cycles across
// every execution checked through this Prepared.
func (pr *Prepared) Coverage() Coverage { return pr.cov }

// Skeleton exposes the static tier (frozen; safe to share read-only).
func (pr *Prepared) Skeleton() *uhb.Skeleton { return pr.skel }

// ExecutionObservable reports whether execution x is observable on the
// model: whether skeleton + x's overlay is acyclic. The overlay is
// rebuilt per candidate (coverage attribution happens at emission) and
// its HasCycle repairs the topological order the previous candidates
// left behind. Only a forbidding cycle pays for the full DFS, which
// records provenance: the witnessing cycle, and therefore the axiom
// multiset OR-ed into the coverage Cycle bitset, depends only on the
// overlay's contents.
func (pr *Prepared) ExecutionObservable(x *mem.Execution) bool {
	pr.ov.Reset(pr.skel)
	b := &pr.dyn
	b.x = x
	b.ov = pr.ov
	b.run()
	b.x, b.ov = nil, nil
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

// Observable reports whether a specific outcome is observable, stopping at
// the first acyclic witness.
func (pr *Prepared) Observable(want mem.Outcome) (bool, error) {
	found := false
	err := mem.Enumerate(pr.p.Mem(), func(x *mem.Execution) bool {
		if x.OutcomeOf() != want {
			return true
		}
		if pr.ExecutionObservable(x) {
			found = true
			return false
		}
		return true
	})
	if err != nil && err != mem.ErrStopped {
		return false, err
	}
	return found, nil
}
