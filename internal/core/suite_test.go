package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// renderSuites serializes sweep results completely enough that two
// byte-identical renderings imply identical verdicts, outcome sets and
// tallies.
func renderSuites(results []*SuiteResult) string {
	var b strings.Builder
	for _, sr := range results {
		fmt.Fprintf(&b, "== %s ==\n", sr.Stack.Name())
		for _, r := range sr.Results {
			fmt.Fprintf(&b, "%s %s racy=%t bugs=%v strict=%v spec=%t/%t/%t\n",
				r.Test.Name, r.Verdict, r.Racy, r.BugOutcomes, r.StrictOutcomes,
				r.SpecifiedAllowed, r.SpecifiedObservable, r.SpecifiedBug)
			var allowed, observable []string
			for o := range r.Allowed {
				allowed = append(allowed, string(o))
			}
			for o := range r.Observable {
				observable = append(observable, string(o))
			}
			sort.Strings(allowed)
			sort.Strings(observable)
			fmt.Fprintf(&b, "  allowed=%v observable=%v\n", allowed, observable)
		}
		fmt.Fprintf(&b, "tally=%+v\n", sr.Tally)
		for _, f := range sr.FamilyNames() {
			fmt.Fprintf(&b, "  %s=%+v\n", f, *sr.ByFamily[f])
		}
	}
	return b.String()
}

func testStacks() []Stack {
	return append(RISCVStacks(true, uspec.Curr)[:2], RISCVStacks(true, uspec.Ours)[:2]...)
}

func testSuite() []*litmus.Test {
	return append(litmus.MP.Generate(), litmus.SB.Generate()...)
}

// TestWarmSweepIsByteIdenticalWithZeroExecutions is the satellite farm
// test: an identical second sweep is served entirely from the memo
// cache — zero verifier executions, byte-identical SuiteResults.
func TestWarmSweepIsByteIdenticalWithZeroExecutions(t *testing.T) {
	eng := NewEngine()
	eng.EnableMemo(0)
	tests := testSuite()
	stacks := testStacks()

	cold, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldExecs := eng.Executions()
	if want := uint64(len(tests) * len(stacks)); coldExecs != want {
		t.Fatalf("cold sweep executed %d jobs, want %d", coldExecs, want)
	}

	warm, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Executions() - coldExecs; got != 0 {
		t.Fatalf("warm sweep executed %d jobs, want 0 (all cache hits)", got)
	}
	stats := eng.LastFarmStats()
	if stats.CacheHits != len(tests)*len(stacks) || stats.Executed != 0 {
		t.Fatalf("warm farm stats %+v", stats)
	}
	if renderSuites(cold) != renderSuites(warm) {
		t.Fatal("warm sweep results are not byte-identical to cold sweep")
	}
}

// TestSweepDeterministicAcrossWorkerCounts checks that worker count and
// steal schedule never leak into results.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	tests := testSuite()
	stacks := testStacks()
	var want string
	for _, workers := range []int{1, 2, 5, 16} {
		eng := NewEngine()
		rs, err := eng.Sweep(tests, stacks, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := renderSuites(rs)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("results with %d workers differ from 1 worker", workers)
		}
	}
}

// TestMemoSnapshotWarmsAFreshEngine checks the on-disk cache: a new
// engine loading the snapshot re-verifies nothing and reproduces the
// same results.
func TestMemoSnapshotWarmsAFreshEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	tests := litmus.MP.Generate()
	stacks := testStacks()[:2]

	first := NewEngine()
	first.EnableMemo(0)
	cold, err := first.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.SaveMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}

	second := NewEngine()
	if err := second.LoadMemoSnapshot(path); err != nil {
		t.Fatal(err)
	}
	warm, err := second.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Executions() != 0 {
		t.Fatalf("snapshot-warmed engine executed %d jobs, want 0", second.Executions())
	}
	if renderSuites(cold) != renderSuites(warm) {
		t.Fatal("snapshot-warmed results differ")
	}
}

// TestSweepDedupAcrossStacks: submitting the same stack twice in one
// sweep verifies each (test, stack) job once.
func TestSweepDedupAcrossStacks(t *testing.T) {
	eng := NewEngine()
	tests := litmus.MP.Generate()
	s := RISCVStacks(true, uspec.Curr)[0]
	rs, err := eng.Sweep(tests, []Stack{s, s}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Executions() != uint64(len(tests)) {
		t.Fatalf("executed %d, want %d (duplicate stack deduplicated)", eng.Executions(), len(tests))
	}
	if renderSuites(rs[:1]) != renderSuites(rs[1:]) {
		t.Fatal("duplicate stacks produced different suite results")
	}
}

// TestSweepStreamDeliversEveryResult checks the streaming channel.
func TestSweepStreamDeliversEveryResult(t *testing.T) {
	eng := NewEngine()
	tests := litmus.MP.Generate()
	stacks := testStacks()[:2]
	events := make(chan Progress, len(tests)*len(stacks))
	if _, err := eng.SweepStream(tests, stacks, 0, events); err != nil {
		t.Fatal(err)
	}
	n := 0
	var last Progress
	for ev := range events {
		n++
		last = ev
		if ev.Total != len(tests)*len(stacks) {
			t.Fatalf("event total = %d", ev.Total)
		}
	}
	if n != len(tests)*len(stacks) {
		t.Fatalf("streamed %d events, want %d", n, len(tests)*len(stacks))
	}
	if last.Done != n {
		t.Fatalf("last event Done = %d, want %d", last.Done, n)
	}
}

// TestStackFingerprintSensitivity: editing one model axiom or one
// mapping recipe changes the fingerprint; renaming does not.
func TestStackFingerprintSensitivity(t *testing.T) {
	s := RISCVStacks(true, uspec.Curr)[0]
	base := StackFingerprint(s)

	renamed := s
	m := *s.Model
	m.Name = "renamed"
	renamed.Model = &m
	if StackFingerprint(renamed) != base {
		t.Error("renaming the model changed the stack fingerprint")
	}

	edited := s
	m2 := *s.Model
	m2.RelaxRR = !m2.RelaxRR
	edited.Model = &m2
	if StackFingerprint(edited) == base {
		t.Error("editing a model axiom did not change the stack fingerprint")
	}

	remapped := s
	mp := *s.Mapping
	mp.StoreSC = append(mp.StoreSC[:len(mp.StoreSC):len(mp.StoreSC)], mp.StoreSC[len(mp.StoreSC)-1])
	remapped.Mapping = &mp
	if StackFingerprint(remapped) == base {
		t.Error("editing a mapping recipe did not change the stack fingerprint")
	}
}

func TestSweepStreamContextCancellationStopsScheduling(t *testing.T) {
	eng := NewEngine()
	eng.EnableMemo(0)
	tests := testSuite()
	stacks := testStacks()
	total := len(tests) * len(stacks)

	ctx, cancel := context.WithCancel(context.Background())
	events := make(chan Progress, 1)
	var got []Progress
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			got = append(got, ev)
			if len(got) == 3 {
				cancel()
			}
		}
	}()
	// Single worker + unbuffered-ish channel: the farm cannot race far
	// ahead of the consumer, so cancelling after 3 events leaves most of
	// the sweep unscheduled.
	results, err := eng.SweepStreamContext(ctx, tests, stacks, 1, events)
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results != nil {
		t.Fatal("aborted sweep returned results")
	}
	if int(eng.Executions()) >= total {
		t.Fatalf("aborted sweep executed all %d jobs", total)
	}
	if stats := eng.LastFarmStats(); stats.Skipped == 0 {
		t.Fatalf("no jobs skipped after cancellation: %+v", stats)
	}
	for _, ev := range got {
		if ev.Key == "" {
			t.Fatal("streamed event missing job key")
		}
	}

	// The cache was not poisoned: a fresh full sweep on the same engine
	// reuses the aborted run's memos and its results are identical to an
	// untouched engine's.
	warm, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewEngine()
	want, err := ref.Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	if renderSuites(warm) != renderSuites(want) {
		t.Fatal("post-abort sweep differs from a fresh engine's")
	}
	if int(eng.Executions()) != len(canonKeys(tests, stacks)) {
		t.Fatalf("executions = %d, want %d unique jobs across abort + completion",
			eng.Executions(), len(canonKeys(tests, stacks)))
	}
}

// canonKeys returns the distinct job keys of a sweep.
func canonKeys(tests []*litmus.Test, stacks []Stack) map[string]bool {
	keys := map[string]bool{}
	for _, s := range stacks {
		for _, tst := range tests {
			keys[JobKey(tst, s)] = true
		}
	}
	return keys
}

func TestSweepStreamEventKeysMatchJobKeys(t *testing.T) {
	eng := NewEngine()
	tests := testSuite()[:6]
	stacks := testStacks()[:2]
	events := make(chan Progress, len(tests)*len(stacks))
	if _, err := eng.SweepStream(tests, stacks, 0, events); err != nil {
		t.Fatal(err)
	}
	want := canonKeys(tests, stacks)
	n := 0
	for ev := range events {
		if !want[ev.Key] {
			t.Fatalf("event key %q is not a JobKey of the sweep", ev.Key)
		}
		n++
	}
	if n != len(tests)*len(stacks) {
		t.Fatalf("streamed %d events, want %d", n, len(tests)*len(stacks))
	}
}

// TestSweepEmptyTestList: no tests means no SuiteResults (not one empty
// result per stack), no events, and a closed events channel.
func TestSweepEmptyTestList(t *testing.T) {
	events := make(chan Progress, 1)
	results, err := NewEngine().SweepStream(nil, testStacks()[:2], 0, events)
	if err != nil {
		t.Fatal(err)
	}
	if results == nil || len(results) != 0 {
		t.Fatalf("results = %#v, want an empty non-nil slice", results)
	}
	if ev, open := <-events; open {
		t.Fatalf("unexpected event %+v", ev)
	}
}

func TestSelectStacks(t *testing.T) {
	both, err := SelectStacks("both", "both")
	if err != nil || len(both) != 28 {
		t.Fatalf("both/both: %d stacks, err %v (want 28)", len(both), err)
	}
	base, err := SelectStacks("base", "curr")
	if err != nil || len(base) != 7 {
		t.Fatalf("base/curr: %d stacks, err %v (want 7)", len(base), err)
	}
	// Fixed frontend-shared order: base-curr, base-ours, base+a-curr,
	// base+a-ours.
	var names []string
	for _, s := range both {
		names = append(names, s.Name())
	}
	wantOrder := append(append(append(
		stackNames(RISCVStacks(true, uspec.Curr)),
		stackNames(RISCVStacks(true, uspec.Ours))...),
		stackNames(RISCVStacks(false, uspec.Curr))...),
		stackNames(RISCVStacks(false, uspec.Ours))...)
	if !reflect.DeepEqual(names, wantOrder) {
		t.Fatalf("stack order:\n got %v\nwant %v", names, wantOrder)
	}
	if _, err := SelectStacks("bogus", "curr"); err == nil {
		t.Fatal("bogus ISA flavour accepted")
	}
	if _, err := SelectStacks("base", "bogus"); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

func stackNames(ss []Stack) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.Name())
	}
	return out
}
