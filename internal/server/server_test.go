package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/corpus"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postVerify(t *testing.T, url string, req api.VerifyRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainStreamE decodes a full NDJSON response into its verdicts and
// terminal summary. It is error-returning (no t.Fatal) so goroutines
// other than the test's may use it.
func drainStreamE(resp *http.Response) ([]api.VerdictRecord, *api.SummaryRecord, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %s", resp.Status)
	}
	var verdicts []api.VerdictRecord
	var summary *api.SummaryRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			return nil, nil, fmt.Errorf("bad record %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "verdict":
			var v api.VerdictRecord
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				return nil, nil, err
			}
			verdicts = append(verdicts, v)
		case "summary":
			summary = new(api.SummaryRecord)
			if err := json.Unmarshal(sc.Bytes(), summary); err != nil {
				return nil, nil, err
			}
		default:
			return nil, nil, fmt.Errorf("unexpected record type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return verdicts, summary, nil
}

func drainStream(t *testing.T, resp *http.Response) ([]api.VerdictRecord, *api.SummaryRecord) {
	t.Helper()
	verdicts, summary, err := drainStreamE(resp)
	if err != nil {
		t.Fatal(err)
	}
	return verdicts, summary
}

func TestVerifyRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/verify → %d, want 405", get.StatusCode)
	}
	for name, req := range map[string]api.VerifyRequest{
		"no selector":      {},
		"two selectors":    {Family: "mp", Suite: "paper"},
		"unknown family":   {Family: "nope"},
		"unknown suite":    {Suite: "nope"},
		"bad isa":          {Family: "mp", ISA: "nope"},
		"bad variant":      {Family: "mp", Variant: "nope"},
		"bad litmus batch": {Litmus: []string{"not litmus at all"}},
	} {
		resp := postVerify(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, resp.StatusCode)
		}
	}
	// Raw bodies: truncated JSON, and an unknown field — a "keys" shard
	// allowlist must fail loudly rather than silently sweep everything.
	for name, body := range map[string]string{
		"truncated JSON": `{"family":`,
		"unknown field":  `{"family":"mp","keys":["x"]}`,
	} {
		raw, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw.Body.Close()
		if raw.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, raw.StatusCode)
		}
	}
	// The memo cache is not reachable over HTTP: no endpoint reads or
	// writes it, so a posted snapshot cannot forge cached verdicts.
	const memoRoot = "/v1/memo"
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, memoRoot + "/snapshot"},
		{http.MethodPost, memoRoot + "/load"},
	} {
		hreq, err := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(`{"version":2,"entries":{}}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s → %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

func TestVerifyInlineLitmusSources(t *testing.T) {
	var srcs []string
	for _, tst := range litmus.MP.Generate()[:3] {
		src, err := corpus.EmitString(tst)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	_, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Litmus: srcs, ISA: "base", Variant: "curr"})
	verdicts, summary := drainStream(t, resp)
	want := 3 * 7 // 3 tests × 7 base/curr stacks
	if len(verdicts) != want || summary == nil || summary.Total != want || summary.Done != want {
		t.Fatalf("got %d verdicts, summary %+v; want %d", len(verdicts), summary, want)
	}
	for _, v := range verdicts {
		if v.Key == "" || v.Test == "" || v.Stack == "" {
			t.Fatalf("incomplete verdict record %+v", v)
		}
	}
}

// TestVerifyInlineModelSpec: a request may carry its own µspec model as
// data. The custom model sweeps independently of a same-named builtin —
// different verdicts, disjoint memo fingerprints — and illegal or
// conflicting specs are 400s.
func TestVerifyInlineModelSpec(t *testing.T) {
	// An SC machine wearing the builtin's name: same display name as
	// Table 7's nMM, completely different ordering semantics.
	impostor := uspec.Config{
		Name: "nMM", Description: "SC machine named nMM",
		OrderSameAddrRR: true, RespectDeps: true, Variant: uspec.Curr,
	}
	_, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "wrc", ISA: "base", Models: []string{impostor.EmitSpec()}})
	custom, customSum := drainStream(t, resp)
	wantStack := "riscv-base-intuitive+nMM/riscv-curr"
	if len(customSum.Stacks) != 1 || customSum.Stacks[0].Stack != wantStack {
		t.Fatalf("custom sweep stacks %+v, want one %s", customSum.Stacks, wantStack)
	}
	if customSum.Bugs != 0 || customSum.Strict == 0 {
		t.Fatalf("SC impostor tallies %+v, want bug-free and strict", customSum)
	}

	resp = postVerify(t, ts.URL, api.VerifyRequest{Family: "wrc", ISA: "base", Variant: "curr"})
	builtin, builtinSum := drainStream(t, resp)
	builtinKeys := map[string]bool{}
	builtinBugs := 0
	for _, v := range builtin {
		if v.Stack == wantStack {
			builtinKeys[v.Key] = true
			if v.Verdict == "Bug" {
				builtinBugs++
			}
		}
	}
	if len(builtinKeys) != len(custom) {
		t.Fatalf("builtin nMM streamed %d keys, custom %d", len(builtinKeys), len(custom))
	}
	if builtinBugs == 0 {
		t.Fatal("builtin nMM shows no bugs on wrc (test premise broken)")
	}
	for _, v := range custom {
		if builtinKeys[v.Key] {
			t.Fatalf("custom model shares memo fingerprint %s with the same-named builtin", v.Key)
		}
	}
	_ = builtinSum

	for name, req := range map[string]api.VerifyRequest{
		"bad spec syntax":     {Family: "mp", Models: []string{"uarch nope"}},
		"illegal spec":        {Family: "mp", Models: []string{"uspec x\nforwarding\norder-same-addr-rr\nrespect-deps\n"}},
		"models plus variant": {Family: "mp", Variant: "curr", Models: []string{impostor.EmitSpec()}},
		"models with bad isa": {Family: "mp", ISA: "nope", Models: []string{impostor.EmitSpec()}},
		"same-named models":   {Family: "mp", Models: []string{impostor.EmitSpec(), impostor.EmitSpec()}},
	} {
		resp := postVerify(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s → %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestStatsAndDebugVars(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"})
	verdicts, _ := drainStream(t, resp)

	st := s.Stats()
	if st.RequestsTotal != 1 || st.VerdictsStreamed != int64(len(verdicts)) || st.JobsExecuted == 0 {
		t.Fatalf("stats %+v after one sweep of %d verdicts", st, len(verdicts))
	}
	if st.Memo == nil || st.Memo.Len == 0 {
		t.Fatalf("stats missing memo counters: %+v", st)
	}
	if st.TestsPerSecond <= 0 {
		t.Fatalf("tests/sec = %v, want > 0", st.TestsPerSecond)
	}

	httpStats, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var wire api.StatsRecord
	if err := json.NewDecoder(httpStats.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	httpStats.Body.Close()
	if wire.RequestsTotal != 1 || wire.VerdictsStreamed != int64(len(verdicts)) {
		t.Fatalf("/v1/stats %+v disagrees with Stats()", wire)
	}

	dv, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(dv.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	dv.Body.Close()
	var own struct {
		Requests int64 `json:"requests_total"`
	}
	if err := json.Unmarshal(vars["tricheckd"], &own); err != nil || own.Requests != 1 {
		t.Fatalf("/debug/vars tricheckd map = %s (err %v)", vars["tricheckd"], err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing the expvar globals")
	}
}

// TestClientDisconnectStopsScheduling is the cancellation acceptance
// test: a client that goes away mid-stream stops its sweep's remaining
// farm jobs (observed via the engine's verifier-execution counter)
// without corrupting the shared cache for later requests.
func TestClientDisconnectStopsScheduling(t *testing.T) {
	eng := core.NewEngine()
	isa := "both"
	if testing.Short() {
		isa = "base"
	}
	s, ts := newTestServer(t, Config{Engine: eng, MaxWorkers: 1})

	// The widest builtin family: the cancellation window is the sweep's
	// runtime, and on a single-core host the busy farm goroutine can
	// starve this client goroutine for tens of milliseconds — a small
	// family's sweep can finish before the disconnect propagates.
	tests := litmus.IRIW.Generate()
	stacks, err := core.SelectStacks(isa, "both")
	if err != nil {
		t.Fatal(err)
	}
	total := len(tests) * len(stacks)

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(api.VerifyRequest{Family: "iriw", ISA: isa, Variant: "both", Workers: 1})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed verdict, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler notices, aborts the farm, and drains.
	deadline := time.Now().Add(30 * time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("request still in flight long after disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	aborted := int(eng.Executions())
	if aborted >= total {
		t.Fatalf("disconnected sweep still executed all %d jobs", total)
	}
	if stats := eng.LastFarmStats(); stats.Skipped == 0 {
		t.Fatalf("no farm jobs skipped after disconnect: %+v", stats)
	}
	// The abort is the supported client flow: counted as a cancel, not
	// as a service error.
	if st := s.Stats(); st.RequestCancels != 1 || st.RequestErrors != 0 {
		t.Fatalf("disconnect accounted as cancels=%d errors=%d, want 1/0", st.RequestCancels, st.RequestErrors)
	}

	// A follow-up full request completes, reuses the aborted run's
	// memos, and matches a fresh engine bit for bit.
	resp2 := postVerify(t, ts.URL, api.VerifyRequest{Family: "iriw", ISA: isa, Variant: "both"})
	verdicts, summary := drainStream(t, resp2)
	if len(verdicts) != total || summary == nil || summary.Done != total {
		t.Fatalf("follow-up request: %d verdicts, summary %+v", len(verdicts), summary)
	}
	if got := int(eng.Executions()); got != total {
		t.Fatalf("abort + completion executed %d jobs, want exactly the %d unique jobs", got, total)
	}
	ref, err := core.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSummaryMatches(t, summary, ref)
}

// TestConcurrentRequestsSurviveACancelledPeer runs a full sweep
// concurrently with one that disconnects; the surviving request's
// results must be complete and correct.
func TestConcurrentRequestsSurviveACancelledPeer(t *testing.T) {
	eng := core.NewEngine()
	s, ts := newTestServer(t, Config{Engine: eng, MaxInFlight: 2, MaxWorkers: 2})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the doomed request
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		body, _ := json.Marshal(api.VerifyRequest{Family: "sb", Workers: 1})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		bufio.NewReader(resp.Body).ReadString('\n')
		cancel()
		resp.Body.Close()
	}()

	resp := postVerify(t, ts.URL, api.VerifyRequest{Family: "mp", ISA: "base", Variant: "both"})
	verdicts, summary := drainStream(t, resp)
	wg.Wait()

	tests := litmus.MP.Generate()
	stacks, err := core.SelectStacks("base", "both")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tests) * len(stacks); len(verdicts) != want {
		t.Fatalf("surviving request streamed %d verdicts, want %d", len(verdicts), want)
	}
	ref, err := core.NewEngine().Sweep(tests, stacks, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSummaryMatches(t, summary, ref)

	deadline := time.Now().Add(30 * time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled peer still in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertSummaryMatches checks a wire summary against in-process suite
// results: same stack order, same overall and per-family tallies.
func assertSummaryMatches(t *testing.T, summary *api.SummaryRecord, ref []*core.SuiteResult) {
	t.Helper()
	if summary == nil {
		t.Fatal("no summary record")
	}
	if len(summary.Stacks) != len(ref) {
		t.Fatalf("summary has %d stacks, want %d", len(summary.Stacks), len(ref))
	}
	for i, sr := range ref {
		ss := summary.Stacks[i]
		if ss.Stack != sr.Stack.Name() {
			t.Fatalf("stack %d: %q, want %q", i, ss.Stack, sr.Stack.Name())
		}
		if ss.Tally != tallyJSON(sr.Tally) {
			t.Fatalf("stack %s tally %+v, want %+v", ss.Stack, ss.Tally, sr.Tally)
		}
		fams := sr.FamilyNames()
		if len(ss.Families) != len(fams) {
			t.Fatalf("stack %s: %d families, want %d", ss.Stack, len(ss.Families), len(fams))
		}
		for j, fam := range fams {
			want := api.FamilyTally{Family: fam, TallyJSON: tallyJSON(*sr.ByFamily[fam])}
			if ss.Families[j] != want {
				t.Fatalf("stack %s family %s: %+v, want %+v", ss.Stack, fam, ss.Families[j], want)
			}
		}
	}
}

// TestLimiterQueuesRequests pins the backpressure contract: with one
// sweep slot, two concurrent requests serialize but both complete.
func TestLimiterQueuesRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1})
	var wg sync.WaitGroup
	totals := make([]int, 2)
	errs := make([]error, 2)
	for i := range totals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			verdicts, summary, err := drainStreamE(resp)
			if err != nil {
				errs[i] = err
				return
			}
			if summary != nil {
				totals[i] = len(verdicts)
			}
		}(i)
	}
	wg.Wait()
	want := len(litmus.CoRR.Generate()) * 7
	for i, n := range totals {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if n != want {
			t.Fatalf("request %d streamed %d verdicts, want %d", i, n, want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz → %s", resp.Status)
	}
}

func TestResolveSuitePaper(t *testing.T) {
	tests, stacks, backend, err := resolve(&api.VerifyRequest{Suite: "paper", ISA: "base", Variant: "curr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != len(litmus.PaperSuite()) || len(stacks) != 7 {
		t.Fatalf("paper suite resolved to %d tests × %d stacks", len(tests), len(stacks))
	}
	if backend != core.BackendUHB {
		t.Fatalf("default backend = %v, want uhb", backend)
	}
}
