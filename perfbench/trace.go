package main

// The traced run (--trace 1) replays the jobs of all three workloads one
// call at a time through each layer's public functions and records a
// span per call. It is the same replay whichever --workload is named,
// and it does a fixed amount of work (about half a minute on two
// CPUs) rather than running for --seconds, so its counts repeat exactly
// for a seed:
//
//	paper replay    the paper suite × 28 stacks, single-threaded:
//	                c11.Evaluate per test, then compile.Compile,
//	                Model.Prepare and Prepared.Evaluate per job, with the
//	                verdict (toolflow step 4) recomputed here and checked
//	                against core.Engine.Sweep (one worker) of the same
//	                inputs. The tracing overhead comes from untraced and
//	                traced replays of four stacks' jobs, in pairs.
//	opsim replay    the opsim-both jobs: the µhb evaluation plus
//	                opsim.ForConfig and Outcomes, with the two observable
//	                sets compared for divergences.
//	service replay  a seeded list of service-mix requests, each sent to
//	                an in-process server (server.New, over loopback
//	                HTTP) and then replayed call by call: request
//	                resolution (family generation, spec parse, stack
//	                selection), core.JobKey per job, the farm sweep
//	                (memo hits for warm requests, executions for cold
//	                ones) and api record encoding. A request's server
//	                self time is its round trip minus resolution, the
//	                farm sweep and encoding.
//
// Where the per-layer metrics come from:
//
//	litmus.generate_s           one litmus.PaperSuite call
//	c11.*, compile.*, uspec.*   summed over the traced paper replay
//	core.sweep_s                core.Engine.Sweep of the paper jobs on
//	                            one worker; core.overhead_share is the
//	                            part of it the replayed layer calls do
//	                            not account for (engine, farm, cover,
//	                            obs)
//	go.*                        runtime.MemStats around that sweep (the
//	                            untraced runs print the same figures per
//	                            workload under "observed")
//	opsim.*, core.divergences   the opsim replay
//	server.*, core.jobkey_us,   the service replay (medians per request
//	api.*, farm.*, client.*     for the _ms figures)
//	trace.overhead_share        the paired replays described above
//
// Spans are kept in memory and written as JSON lines to
// <workdir>/traces/ when the run ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"tricheck/api"
	"tricheck/internal/c11"
	"tricheck/internal/compile"
	"tricheck/internal/core"
	"tricheck/internal/litmus"
	"tricheck/internal/mem"
	"tricheck/internal/opsim"
	"tricheck/internal/server"
	"tricheck/internal/uspec"
)

// serviceReplayRequests is the length of the replayed request list
// (half warm, half cold).
const serviceReplayRequests = 60

// span is one timed call. Parent is the index of the enclosing span
// (-1 for a root); Req identifies the job or request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer records spans in memory. With on false it records nothing, which
// gives the untraced baseline of the same replay.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// step4 is the toolflow's equivalence check, recomputed independently of
// core: a C11-forbidden yet observable outcome is a Bug; a permitted yet
// unobservable one makes the stack OverlyStrict.
func step4(hll *c11.Result, observable, all map[mem.Outcome]bool) core.Verdict {
	v := core.Equivalent
	classify := func(o mem.Outcome) {
		switch {
		case observable[o] && !hll.Allowed[o]:
			v = core.Bug
		case hll.Allowed[o] && !observable[o] && v == core.Equivalent:
			v = core.OverlyStrict
		}
	}
	for o := range all {
		classify(o)
	}
	for o := range hll.All {
		classify(o)
	}
	return v
}

// layerTimes accumulates per-layer busy time and work counts.
type layerTimes struct {
	c11, compile, prepare, evaluate, opsim time.Duration
	candidates, graphs, states             int
	divergences, skipped                   int
}

// replayPaper runs every (test, stack) job of tests × stacks through the
// layer calls and returns the per-stack verdicts in stack-major order,
// with tallies and specified-bug counts.
func replayPaper(tr *tracer, tests []*litmus.Test, stacks []core.Stack, lt *layerTimes) ([]core.Verdict, []int, error) {
	root := tr.start("paper.replay", -1, 0)
	defer tr.end(root)
	hll := make([]*c11.Result, len(tests))
	for i, t := range tests {
		id := tr.start("c11.evaluate", root, i)
		t0 := time.Now()
		r, err := c11.Evaluate(t.Prog)
		lt.c11 += time.Since(t0)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("c11 on %s: %w", t.Name, err)
		}
		hll[i] = r
	}
	verdicts := make([]core.Verdict, 0, len(tests)*len(stacks))
	specified := make([]int, len(stacks))
	for si, s := range stacks {
		for ti, t := range tests {
			req := si*len(tests) + ti
			job := tr.start("job", root, req)
			res, err := uhbEvaluate(tr, job, req, t, s, lt)
			if err != nil {
				return nil, nil, err
			}
			verdicts = append(verdicts, step4(hll[ti], res.Observable, res.All))
			if res.Observable[t.Specified] && !hll[ti].Allowed[t.Specified] {
				specified[si]++
			}
			tr.end(job)
		}
	}
	return verdicts, specified, nil
}

// uhbEvaluate compiles a test for a stack and evaluates it on the µspec
// model, timing each call.
func uhbEvaluate(tr *tracer, parent, req int, t *litmus.Test, s core.Stack, lt *layerTimes) (*uspec.Result, error) {
	id := tr.start("compile.compile", parent, req)
	t0 := time.Now()
	prog, err := compile.Compile(s.Mapping, t.Prog)
	lt.compile += time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", t.Name, err)
	}
	defer compile.ReleaseProgram(prog)
	id = tr.start("uspec.prepare", parent, req)
	t0 = time.Now()
	pr := s.Model.Prepare(prog)
	lt.prepare += time.Since(t0)
	tr.end(id)
	defer pr.Close()
	id = tr.start("uspec.evaluate", parent, req)
	t0 = time.Now()
	res, err := pr.Evaluate()
	lt.evaluate += time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("µspec on %s: %w", t.Name, err)
	}
	lt.candidates += res.Candidates
	lt.graphs += res.Graphs
	return res, nil
}

// replayOpsim cross-checks every job of tests × stacks against the
// operational simulator and returns the verdict tally.
func replayOpsim(tr *tracer, tests []*litmus.Test, stacks []core.Stack, lt *layerTimes, reqBase int) (core.Tally, error) {
	var tally core.Tally
	root := tr.start("opsim.replay", -1, reqBase)
	defer tr.end(root)
	hll := map[*litmus.Test]*c11.Result{}
	for si, s := range stacks {
		supported := opsim.Supports(s.Model.Config) == nil
		for ti, t := range tests {
			req := reqBase + si*len(tests) + ti
			job := tr.start("job", root, req)
			h := hll[t]
			if h == nil {
				var err error
				id := tr.start("c11.evaluate", job, req)
				if h, err = c11.Evaluate(t.Prog); err != nil {
					return tally, err
				}
				tr.end(id)
				hll[t] = h
			}
			res, err := uhbEvaluate(tr, job, req, t, s, lt)
			if err != nil {
				return tally, err
			}
			r := &core.TestResult{Verdict: step4(h, res.Observable, res.All)}
			if !supported {
				lt.skipped++
			} else {
				prog, err := compile.Compile(s.Mapping, t.Prog)
				if err != nil {
					return tally, err
				}
				id := tr.start("opsim.explore", job, req)
				t0 := time.Now()
				sim, err := opsim.ForConfig(s.Model.Config, prog)
				if err != nil {
					compile.ReleaseProgram(prog)
					return tally, err
				}
				out := sim.Outcomes()
				lt.opsim += time.Since(t0)
				tr.end(id)
				compile.ReleaseProgram(prog)
				lt.states += sim.StateCount()
				if !sameSet(out, res.Observable) {
					lt.divergences++
					r.Verdict = core.Divergence
				}
			}
			tally.Add(r)
			tr.end(job)
		}
	}
	return tally, nil
}

func sameSet(a, b map[mem.Outcome]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

// serviceLayers accumulates the service replay's per-layer figures.
type serviceLayers struct {
	resolve, self, reads []float64 // ms per request
	jobkey, encode       time.Duration
	keys, records        int
	hits, misses         uint64
	executions           uint64
}

// replayService sends each request to an in-process server backed by
// eng, checks the stream, then replays the request's calls directly.
func replayService(tr *tracer, eng *core.Engine, reqs []request, ref reference, reqBase int, out *outcome) (*serviceLayers, error) {
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hc := &http.Client{}
	sl := &serviceLayers{}
	root := tr.start("service.replay", -1, reqBase)
	defer tr.end(root)
	for i, req := range reqs {
		rid := reqBase + i
		out.attempted++
		id := tr.start("server.request", root, rid)
		st, err := verify(hc, ts.URL, req)
		rt := tr.end(id)
		if err == nil {
			err = st.check(req, ref)
		}
		if err != nil {
			out.fail("replayed request %d: %v", i, err)
			continue
		}
		sl.reads = append(sl.reads, ms(st.self))

		id = tr.start("server.resolve", root, rid)
		tests, stacks, err := resolveRequest(req)
		resolve := tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.start("core.jobkey", root, rid)
		for _, s := range stacks {
			for _, t := range tests {
				core.JobKey(t, s)
			}
		}
		jobkey := tr.end(id)
		sl.keys += len(tests) * len(stacks)

		// The server engine already holds a cold request's results, so
		// cold requests replay on a fresh memoizing engine.
		feng := eng
		if !req.warm {
			feng = core.NewEngine()
			feng.EnableMemo(0)
		}
		m0, _ := feng.MemoStats()
		x0 := feng.Executions()
		events := make(chan core.Progress, len(tests)*len(stacks)) // one slot per job: the sweep never blocks on the replay
		id = tr.start("farm.sweep", root, rid)
		_, err = feng.SweepStreamBackend(context.Background(), tests, stacks, 0, core.BackendUHB, events)
		farm := tr.end(id)
		if err != nil {
			return nil, err
		}
		m1, _ := feng.MemoStats()
		sl.hits += m1.Hits - m0.Hits
		sl.misses += m1.Misses - m0.Misses
		sl.executions += feng.Executions() - x0

		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		id = tr.start("api.encode", root, rid)
		n := 0
		for ev := range events {
			buf.Reset()
			if err := enc.Encode(api.VerdictRecord{
				Type: "verdict", Done: ev.Done, Total: ev.Total, Test: ev.Test, Stack: ev.Stack,
				Verdict: ev.Verdict.String(), Key: ev.Key, Cached: ev.Cached, SpecifiedBug: ev.SpecifiedBug,
			}); err != nil {
				return nil, err
			}
			n++
		}
		encode := tr.end(id)
		sl.records += n
		sl.jobkey += jobkey
		sl.encode += encode
		sl.resolve = append(sl.resolve, ms(resolve))
		// The server computes job keys inside the farm sweep (one
		// fingerprint per test and per stack), so core.JobKey's per-job
		// cost is reported on its own and not subtracted here.
		sl.self = append(sl.self, ms(rt-resolve-farm-encode))
	}
	return sl, nil
}

// resolveRequest does what the server does to turn a request into a
// sweep: generate the family, parse an inline spec, select the stacks.
func resolveRequest(req request) ([]*litmus.Test, []core.Stack, error) {
	tests, err := familyTests([]string{req.family})
	if err != nil {
		return nil, nil, err
	}
	if req.warm {
		stacks, err := core.SelectStacks("both", "both")
		return tests, stacks, err
	}
	spec, err := uspec.ParseSpec(req.spec)
	if err != nil {
		return nil, nil, err
	}
	stacks, err := core.SelectStacksModels(req.isa, []*uspec.Model{uspec.New(*spec)})
	return tests, stacks, err
}

// Tracing overhead is measured on the paper jobs of overheadStacks
// stacks, replayed overheadPairs times untraced and traced.
const (
	overheadStacks = 4
	overheadPairs  = 5
)

// tracingOverhead returns the median over pairs of (traced − untraced) /
// untraced replay time. Each pair runs back to back, in alternating
// order, so a change in machine speed during the run mostly cancels
// within a pair. The garbage collector is off during the passes: the
// span buffer enlarges the live heap, which makes collections rarer,
// and that saving would otherwise hide the spans' own cost.
func tracingOverhead(tests []*litmus.Test, stacks []core.Stack) (float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ratios []float64
	for k := 0; k < overheadPairs; k++ {
		var d [2]time.Duration // untraced, traced
		for i := 0; i < 2; i++ {
			on := (i+k)%2 == 1
			runtime.GC()
			t0 := time.Now()
			if _, _, err := replayPaper(&tracer{on: on, epoch: t0}, tests, stacks, &layerTimes{}); err != nil {
				return 0, err
			}
			if on {
				d[1] = time.Since(t0)
			} else {
				d[0] = time.Since(t0)
			}
		}
		ratios = append(ratios, (d[1]-d[0]).Seconds()/d[0].Seconds())
	}
	return median(ratios), nil
}

// runTrace is the traced run.
func runTrace(c config) (*outcome, error) {
	dir, err := newRunDir(c)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := rand.New(rand.NewSource(c.seed))
	out := &outcome{}
	tr := &tracer{on: true, epoch: time.Now()}
	var lt layerTimes

	// Paper replay: the tracing overhead, the traced replay, then the
	// engine's own sweep of the same inputs.
	id := tr.start("litmus.generate", -1, 0)
	tests, stacks, err := paperSweep.inputs()
	generate := tr.end(id)
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(tests), func(a, b int) { tests[a], tests[b] = tests[b], tests[a] })
	rng.Shuffle(len(stacks), func(a, b int) { stacks[a], stacks[b] = stacks[b], stacks[a] })
	overhead, err := tracingOverhead(tests, stacks[:overheadStacks])
	if err != nil {
		return nil, err
	}
	verdicts, specified, err := replayPaper(tr, tests, stacks, &lt)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = tr.start("core.sweep", -1, 0)
	rs, err := core.NewEngine().Sweep(tests, stacks, 1)
	sweep := tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if err := paperSweep.expect.check(rs); err != nil {
		out.fail("core sweep: %v", err)
	}
	var paperTally core.Tally
	for si, sr := range rs {
		for ti, r := range sr.Results {
			out.attempted++
			v := verdicts[si*len(tests)+ti]
			paperTally.Add(&core.TestResult{Verdict: v})
			if v != r.Verdict {
				out.fail("%s on %s: replayed verdict %s, engine %s", r.Test.Name, sr.Stack.Name(), v, r.Verdict)
			}
		}
		if sr.Stack.Name() == paperSweep.expect.HeadlineStack && specified[si] != paperSweep.expect.HeadlineBugs {
			out.fail("replay: %d specified bugs on %s, want %d", specified[si], sr.Stack.Name(), paperSweep.expect.HeadlineBugs)
		}
	}
	layerSum := lt.c11 + lt.compile + lt.prepare + lt.evaluate

	// Opsim replay.
	otests, ostacks, err := opsimBoth.inputs()
	if err != nil {
		return nil, err
	}
	rng.Shuffle(len(otests), func(a, b int) { otests[a], otests[b] = otests[b], otests[a] })
	rng.Shuffle(len(ostacks), func(a, b int) { ostacks[a], ostacks[b] = ostacks[b], ostacks[a] })
	var olt layerTimes
	otally, err := replayOpsim(tr, otests, ostacks, &olt, len(verdicts))
	if err != nil {
		return nil, err
	}
	out.attempted += otally.Total
	e := opsimBoth.expect
	if otally.Total != e.Verdicts || otally.Bugs != e.Bugs || otally.Strict != e.Strict || otally.Equivalent != e.Equivalent || otally.Divergent != e.Divergent {
		out.fail("opsim replay tallies %+v, want %+v", otally, e)
	}

	// Service replay.
	snapshot := filepath.Join(dir, "memo.json")
	ref, err := buildSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	eng := core.NewEngine()
	id = tr.start("farm.snapshot_load", -1, 0)
	err = eng.LoadMemoSnapshot(snapshot)
	load := tr.end(id)
	if err != nil {
		return nil, err
	}
	src := newMix(c.seed)
	reqs := make([]request, 0, serviceReplayRequests)
	for len(reqs) < serviceReplayRequests {
		r, ok := src.next()
		if !ok {
			break
		}
		reqs = append(reqs, r)
	}
	sl, err := replayService(tr, eng, reqs, ref, len(verdicts)+otally.Total, out)
	if err != nil {
		return nil, err
	}
	if len(sl.resolve) == 0 {
		return out, fmt.Errorf("no replayed request succeeded (%d failed)", out.failed)
	}

	tracePath := filepath.Join(c.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), tracePath)

	n := float64(len(verdicts))
	out.metrics = map[string]metric{
		"litmus.generate_s":        {generate.Seconds(), "s"},
		"c11.evaluate_s":           {lt.c11.Seconds(), "s"},
		"compile.compile_s":        {lt.compile.Seconds(), "s"},
		"uspec.prepare_s":          {lt.prepare.Seconds(), "s"},
		"uspec.evaluate_s":         {lt.evaluate.Seconds(), "s"},
		"uspec.candidates":         {float64(lt.candidates), "count"},
		"uspec.graphs":             {float64(lt.graphs), "count"},
		"core.sweep_s":             {sweep.Seconds(), "s"},
		"core.overhead_share":      {(sweep - layerSum).Seconds() / sweep.Seconds(), "ratio"},
		"go.mallocs_per_verdict":   {float64(m1.Mallocs-m0.Mallocs) / n, "count"},
		"go.gc_cycles":             {float64(m1.NumGC - m0.NumGC), "count"},
		"opsim.explore_s":          {olt.opsim.Seconds(), "s"},
		"opsim.states":             {float64(olt.states), "count"},
		"core.divergences":         {float64(olt.divergences), "count"},
		"server.resolve_ms":        {median(sl.resolve), "ms"},
		"core.jobkey_us":           {us(sl.jobkey) / float64(sl.keys), "us"},
		"server.self_ms":           {median(sl.self), "ms"},
		"api.encode_us_per_record": {us(sl.encode) / float64(sl.records), "us"},
		"farm.memo_hit_ratio":      {float64(sl.hits) / float64(sl.hits+sl.misses), "ratio"},
		"farm.snapshot_load_s":     {load.Seconds(), "s"},
		"client.read_ms":           {median(sl.reads), "ms"},
		"trace.overhead_share":     {overhead, "ratio"},
	}
	out.samples = map[string]int{"service_requests": len(sl.resolve), "paper_jobs": len(verdicts), "opsim_jobs": otally.Total}
	out.counts = map[string]any{
		"paper": map[string]any{
			"verdicts": len(verdicts), "bugs": paperTally.Bugs, "strict": paperTally.Strict,
			"equivalent": paperTally.Equivalent, "candidates": lt.candidates, "graphs": lt.graphs,
		},
		"opsim": map[string]any{
			"verdicts": otally.Total, "states": olt.states, "divergences": olt.divergences,
			"skipped_jobs": olt.skipped, "candidates": olt.candidates,
		},
		"service": map[string]any{
			"requests": len(sl.resolve), "records": sl.records, "job_keys": sl.keys,
			"memo_hits": sl.hits, "memo_misses": sl.misses, "executions": sl.executions,
		},
	}
	return out, nil
}
