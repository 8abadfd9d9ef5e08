package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"tricheck/api"
	"tricheck/internal/obs"
)

// TestVerifyStreamCarriesTraceID pins the correlation contract: every
// record of one /v1/verify stream — verdicts and summary — carries the
// same non-empty request trace ID, and distinct requests get distinct
// IDs.
func TestVerifyStreamCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"}

	verdicts, summary, err := drainStreamE(postVerify(t, ts.URL, req))
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 || summary == nil {
		t.Fatalf("stream: %d verdicts, summary %v", len(verdicts), summary)
	}
	trace := summary.Trace
	if len(trace) != 16 {
		t.Fatalf("summary trace %q, want 16 hex chars", trace)
	}
	for _, v := range verdicts {
		if v.Trace != trace {
			t.Fatalf("verdict trace %q != summary trace %q", v.Trace, trace)
		}
	}
	if summary.ElapsedSeconds < 0 {
		t.Errorf("negative elapsed %v", summary.ElapsedSeconds)
	}
	if summary.TestsPerSecond <= 0 {
		t.Errorf("tests/sec = %v, want > 0 on a completed sweep", summary.TestsPerSecond)
	}

	_, summary2, err := drainStreamE(postVerify(t, ts.URL, req))
	if err != nil {
		t.Fatal(err)
	}
	if summary2.Trace == trace {
		t.Error("two requests shared a trace ID")
	}
}

// TestMetricsEndpoint pins the exposition: valid content type, the
// process registry's farm/verdict families present after a sweep, and
// the server's own counters rendered alongside.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE tricheck_farm_jobs_total counter",
		"# TYPE tricheck_verdict_phase_seconds histogram",
		`tricheck_verdict_phase_seconds_bucket{phase="enumerate",le="+Inf"}`,
		"# TYPE tricheckd_requests_total counter",
		"tricheckd_requests_total 1",
		"# TYPE tricheckd_requests_inflight gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestTracesEndpoint pins /v1/traces: a JSON array that, after a
// request, contains that request's root verify span.
func TestTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, summary := drainStream(t, postVerify(t, ts.URL, api.VerifyRequest{Family: "corr", ISA: "base", Variant: "curr"}))

	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var traces []obs.TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces {
		if tr.TraceS == summary.Trace && tr.Name == "verify" {
			found = true
			if tr.Dur <= 0 {
				t.Errorf("verify span duration %v", tr.Dur)
			}
		}
	}
	if !found {
		t.Errorf("request trace %s not in the slow-span ring (%d spans)", summary.Trace, len(traces))
	}
}

// TestPprofGate pins that /debug/pprof/ is 404 by default and live only
// with Config.EnablePprof.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof off: status %s, want 404", resp.Status)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof on: status %s, want 200", resp.Status)
	}
}
