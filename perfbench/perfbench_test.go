package main

import (
	"fmt"
	"strings"
	"testing"
)

// A wrong pinned expectation must fail every operation, so the run
// reports correct=false instead of passing on a broken check.
func TestWrongExpectationFailsRun(t *testing.T) {
	spec := paperSweep
	spec.expect.HeadlineBugs = 143
	out, err := runSweepWorkload(config{seed: 1, seconds: 0.001}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != 2 || out.failed != 2 {
		t.Fatalf("attempted %d, failed %d; want both operations failed", out.attempted, out.failed)
	}
	if !strings.Contains(out.failures[0], "143") {
		t.Errorf("failure %q does not name the expectation", out.failures[0])
	}
}

func verdictLine(done, total int, verdict string, cached bool) string {
	return fmt.Sprintf(`{"type":"verdict","done":%d,"total":%d,"test":"t%d","stack":"s","verdict":%q,"key":"k","cached":%v}`,
		done, total, done, verdict, cached)
}

func TestStreamChecks(t *testing.T) {
	summary := func(done, total, bugs, equiv, cached int) string {
		return fmt.Sprintf(`{"type":"summary","done":%d,"total":%d,"bugs":%d,"strict":0,"equivalent":%d,"cached":%d,"elapsed_seconds":0,"tests_per_sec":0,"stacks":[{"stack":"s","tally":{"bugs":%d,"strict":0,"equivalent":%d,"total":%d,"specified_bugs":0},"families":null}],"coverage":{"models":0,"jobs":0,"axioms_fired":0,"axioms_edged":0,"axioms_cycled":0,"vectors":0}}`,
			done, total, bugs, equiv, cached, bugs, equiv, total)
	}
	cold := request{family: "mp", isa: "base", want: 2}
	cases := []struct {
		name  string
		lines []string
		ok    bool
	}{
		{"good", []string{verdictLine(1, 2, "Bug", false), verdictLine(2, 2, "Equivalent", false), summary(2, 2, 1, 1, 0)}, true},
		{"cached cold record", []string{verdictLine(1, 2, "Bug", true), verdictLine(2, 2, "Equivalent", false), summary(2, 2, 1, 1, 1)}, false},
		{"short stream", []string{verdictLine(1, 2, "Bug", false), summary(1, 2, 1, 0, 0)}, false},
		{"verdicts disagree with summary", []string{verdictLine(1, 2, "Bug", false), verdictLine(2, 2, "Bug", false), summary(2, 2, 1, 1, 0)}, false},
		{"no summary", []string{verdictLine(1, 2, "Bug", false), verdictLine(2, 2, "Equivalent", false)}, false},
	}
	for _, tc := range cases {
		st, err := readStream(strings.NewReader(strings.Join(tc.lines, "\n") + "\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := st.check(cold, nil); (err == nil) != tc.ok {
			t.Errorf("%s: check error %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if _, err := readStream(strings.NewReader(`{"type":"error","error":"boom"}` + "\n")); err == nil {
		t.Error("an error record was accepted")
	}
}

// A warm response must reproduce the in-process per-stack tallies.
func TestWarmCheckComparesReference(t *testing.T) {
	warm := request{warm: true, family: "mp", want: 1}
	st, err := readStream(strings.NewReader(verdictLine(1, 1, "Bug", true) + "\n" +
		`{"type":"summary","done":1,"total":1,"bugs":1,"strict":0,"equivalent":0,"cached":1,"stacks":[{"stack":"s","tally":{"bugs":1,"strict":0,"equivalent":0,"total":1,"specified_bugs":1},"families":null}]}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	ref := reference{"mp": {"s": {Bugs: 1, Total: 1, SpecifiedBugs: 1}}}
	if err := st.check(warm, ref); err != nil {
		t.Fatalf("matching reference rejected: %v", err)
	}
	wrong := ref["mp"]["s"]
	wrong.SpecifiedBugs = 0
	ref["mp"]["s"] = wrong
	if err := st.check(warm, ref); err == nil {
		t.Fatal("a reference with another specified-bug count was accepted")
	}
}

// The request sequence is a function of the seed: pairs of one warm and
// one cold request, and no cold request repeats.
func TestMixIsSeeded(t *testing.T) {
	draw := func(seed int64, n int) []request {
		m := newMix(seed)
		var out []request
		for i := 0; i < n; i++ {
			r, ok := m.next()
			if !ok {
				break
			}
			out = append(out, r)
		}
		return out
	}
	a, b, c := draw(1, 200), draw(1, 200), draw(2, 200)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("one seed gave two sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("two seeds gave one sequence")
	}
	all := draw(1, 1<<20)
	seen := map[string]bool{}
	warm := 0
	for i, r := range all {
		if r.warm {
			warm++
			continue
		}
		k := r.family + "|" + r.isa + "|" + r.spec
		if seen[k] {
			t.Fatalf("cold request %d repeats %s on %s", i, r.family, r.isa)
		}
		seen[k] = true
	}
	if warm != len(seen) || len(seen) != 1826 {
		t.Fatalf("%d warm and %d cold requests; want 1826 of each", warm, len(seen))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := quantile(xs, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}
