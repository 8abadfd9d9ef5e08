package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"tricheck/api"
	"tricheck/internal/core"
	"tricheck/internal/litmus"
	"tricheck/internal/uspec"
)

// Service-mix shape: two closed-loop client connections against a
// tricheckd with its default settings (GOMAXPROCS farm workers per
// request).
const (
	clients = 2
	// boots is how many times a run starts tricheckd to time set-up; the
	// last boot serves the load.
	boots = 3
)

// warmFamilies are the 81-test paper families a warm request sweeps over
// all 28 stacks (2,268 records, every one a memo hit).
var warmFamilies = []string{"mp", "sb", "corr"}

// request is one /v1/verify request of the mix.
type request struct {
	warm   bool
	family string
	isa    string // cold only
	spec   string // cold only: an inline lattice spec
	want   int    // records the stream must carry
}

func (r request) body() api.VerifyRequest {
	if r.warm {
		return api.VerifyRequest{Family: r.family}
	}
	return api.VerifyRequest{Family: r.family, ISA: r.isa, Models: []string{r.spec}}
}

// coldPool lists every cold request: each 81- or 243-test family on
// each ISA flavour with each lattice config that is not a builtin model,
// in seeded order. Drawing without replacement keeps every cold record
// uncached: the snapshot holds only builtin-model results, and no two
// pool entries share a (test, stack) pair.
func coldPool(rng *rand.Rand) []request {
	builtin := map[string]bool{}
	for _, m := range uspec.Builtins().All() {
		builtin[m.Config.ContentKey()] = true
	}
	var specs []string
	for _, v := range []uspec.Variant{uspec.Curr, uspec.Ours} {
		for _, c := range uspec.EnumerateConfigs(v) {
			if !builtin[c.ContentKey()] {
				specs = append(specs, c.EmitSpec())
			}
		}
	}
	var pool []request
	for _, shape := range litmus.AllShapes() {
		n := shape.Variants()
		if n != 81 && n != 243 {
			continue
		}
		for _, isa := range []string{"base", "base+a"} {
			for _, s := range specs {
				pool = append(pool, request{family: shape.Name, isa: isa, spec: s, want: n})
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// mix hands out the seeded request sequence: pairs of one warm and one
// cold request in seeded order. It is safe for concurrent use.
type mix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	cold    []request
	pending []request
}

func newMix(seed int64) *mix {
	rng := rand.New(rand.NewSource(seed))
	return &mix{rng: rng, cold: coldPool(rng)}
}

// next returns the next request; ok is false once the cold pool is
// spent.
func (m *mix) next() (r request, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		if len(m.cold) == 0 {
			return request{}, false
		}
		w := request{warm: true, family: warmFamilies[m.rng.Intn(len(warmFamilies))], want: 81 * 28}
		c := m.cold[0]
		m.cold = m.cold[1:]
		if m.rng.Intn(2) == 0 {
			m.pending = []request{w, c}
		} else {
			m.pending = []request{c, w}
		}
	}
	r = m.pending[0]
	m.pending = m.pending[1:]
	return r, true
}

// reference holds the in-process verdict tallies of the paper sweep,
// per family and stack, that warm responses must reproduce.
type reference map[string]map[string]api.TallyJSON

// buildSnapshot runs the paper sweep in process with the memo cache on,
// checks it, writes the memo snapshot to path and returns the reference
// tallies.
func buildSnapshot(path string) (reference, error) {
	tests, stacks, err := paperSweep.inputs()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine()
	eng.EnableMemo(0)
	rs, err := eng.Sweep(tests, stacks, 0)
	if err != nil {
		return nil, err
	}
	if err := paperSweep.expect.check(rs); err != nil {
		return nil, fmt.Errorf("snapshot sweep: %w", err)
	}
	ref := reference{}
	for _, sr := range rs {
		for fam, t := range sr.ByFamily {
			if ref[fam] == nil {
				ref[fam] = map[string]api.TallyJSON{}
			}
			ref[fam][sr.Stack.Name()] = api.TallyJSON{
				Bugs: t.Bugs, Strict: t.Strict, Equivalent: t.Equivalent,
				Divergent: t.Divergent, Total: t.Total, SpecifiedBugs: t.SpecifiedBugs,
			}
		}
	}
	return ref, eng.SaveMemoSnapshot(path)
}

// stream is what the load generator extracts from one NDJSON response:
// it counts records and verdict strings and decodes only the summary.
type stream struct {
	records, cached int
	verdicts        map[string]int
	summary         *api.SummaryRecord
	// self is the generator's own time spent handling lines.
	self time.Duration
}

var (
	verdictPrefix = []byte(`{"type":"verdict"`)
	summaryPrefix = []byte(`{"type":"summary"`)
	verdictField  = []byte(`"verdict":"`)
	cachedTrue    = []byte(`"cached":true`)
)

// readStream consumes one /v1/verify response body.
func readStream(r io.Reader) (stream, error) {
	st := stream{verdicts: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		t0 := time.Now()
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, verdictPrefix):
			st.records++
			i := bytes.Index(line, verdictField)
			if i < 0 {
				return st, fmt.Errorf("verdict record without a verdict: %.120s", line)
			}
			v := line[i+len(verdictField):]
			if j := bytes.IndexByte(v, '"'); j >= 0 {
				st.verdicts[string(v[:j])]++
			}
			if bytes.Contains(line, cachedTrue) {
				st.cached++
			}
		case bytes.HasPrefix(line, summaryPrefix):
			st.summary = &api.SummaryRecord{}
			if err := json.Unmarshal(line, st.summary); err != nil {
				return st, fmt.Errorf("decoding summary: %w", err)
			}
		default:
			return st, fmt.Errorf("unexpected record: %.200s", line)
		}
		st.self += time.Since(t0)
	}
	return st, sc.Err()
}

// check verifies one response against its request: the record count,
// done == total, every record cached (warm) or uncached (cold), verdict
// counts that match the summary, and for warm requests per-stack
// tallies equal to the in-process reference.
func (st stream) check(req request, ref reference) error {
	s := st.summary
	if s == nil {
		return fmt.Errorf("%s: stream ended without a summary after %d records", req.family, st.records)
	}
	if st.records != req.want || s.Done != req.want || s.Total != req.want {
		return fmt.Errorf("%s: %d records, done %d, total %d; want %d", req.family, st.records, s.Done, s.Total, req.want)
	}
	wantCached := 0
	if req.warm {
		wantCached = req.want
	}
	if st.cached != wantCached || s.Cached != wantCached {
		return fmt.Errorf("%s (warm=%v): %d records cached, summary says %d; want %d", req.family, req.warm, st.cached, s.Cached, wantCached)
	}
	if st.verdicts["Bug"] != s.Bugs || st.verdicts["OverlyStrict"] != s.Strict ||
		st.verdicts["Equivalent"] != s.Equivalent || st.verdicts["Divergence"] != 0 || s.Divergent != 0 {
		return fmt.Errorf("%s: verdict records %v disagree with summary %d/%d/%d", req.family, st.verdicts, s.Bugs, s.Strict, s.Equivalent)
	}
	if !req.warm {
		if len(s.Stacks) != 1 || s.Stacks[0].Tally.Total != req.want {
			return fmt.Errorf("%s on %s: %d stack summaries, want one of %d verdicts", req.family, req.isa, len(s.Stacks), req.want)
		}
		return nil
	}
	if len(s.Stacks) != len(ref[req.family]) {
		return fmt.Errorf("%s: %d stack summaries, want %d", req.family, len(s.Stacks), len(ref[req.family]))
	}
	for _, ss := range s.Stacks {
		if want, ok := ref[req.family][ss.Stack]; !ok || ss.Tally != want {
			return fmt.Errorf("%s on %s: tally %+v, in-process reference %+v", req.family, ss.Stack, ss.Tally, want)
		}
	}
	return nil
}

// verify sends one request and reads its stream.
func verify(hc *http.Client, base string, req request) (stream, error) {
	body, err := json.Marshal(req.body())
	if err != nil {
		return stream{}, err
	}
	resp, err := hc.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return stream{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return stream{}, fmt.Errorf("%s: HTTP %d: %s", req.family, resp.StatusCode, msg)
	}
	return readStream(resp.Body)
}

// daemon is one tricheckd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// boot starts tricheckd on snapshot and returns once /healthz answers,
// with the time from exec to healthy.
func boot(bin, snapshot string, log io.Writer) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:    exec.Command(bin, "-addr", addr, "-cache", snapshot),
		base:   "http://" + addr,
		exited: make(chan struct{}),
	}
	d.cmd.Stdout, d.cmd.Stderr = log, log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("tricheckd exited before it was healthy")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 2*time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("tricheckd not healthy after %s", time.Since(t0))
		}
	}
}

// serverCounters are the tricheckd counters read around the load.
type serverCounters struct {
	cpu             time.Duration
	executed        uint64
	hits            uint64
	mallocs, gcRuns uint64
}

func readCounters(hc *http.Client, d *daemon) (serverCounters, error) {
	var c serverCounters
	var err error
	if c.cpu, err = procCPU(d.cmd.Process.Pid); err != nil {
		return c, err
	}
	var st api.StatsRecord
	if err := getJSON(hc, d.base+"/v1/stats", &st); err != nil {
		return c, err
	}
	if st.Memo == nil {
		return c, fmt.Errorf("/v1/stats has no memo block")
	}
	c.executed, c.hits = st.JobsExecuted, st.Memo.Hits
	var vars struct {
		Memstats struct{ Mallocs, NumGC uint64 } `json:"memstats"`
	}
	if err := getJSON(hc, d.base+"/debug/vars", &vars); err != nil {
		return c, err
	}
	c.mallocs, c.gcRuns = vars.Memstats.Mallocs, vars.Memstats.NumGC
	return c, nil
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// bucket is the load of one second of the window.
type bucket struct {
	records, requests int
	elapsed, cpu      time.Duration // cpu is tricheckd's CPU time
}

// sampleSeconds cuts the window into one-second buckets until stop is
// closed. totals returns the cumulative records and requests so far;
// cpu0 is tricheckd's CPU time at the start of the window.
func sampleSeconds(stop <-chan struct{}, pid int, cpu0 time.Duration, totals func() (int, int)) []bucket {
	var out []bucket
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var rec0, req0 int
	t0 := time.Now()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		cpu, err := procCPU(pid)
		if err != nil {
			return out
		}
		rec, req := totals()
		now := time.Now()
		out = append(out, bucket{records: rec - rec0, requests: req - req0, elapsed: now.Sub(t0), cpu: cpu - cpu0})
		rec0, req0, cpu0, t0 = rec, req, cpu, now
	}
}

// runServiceMix boots tricheckd from a paper-sweep memo snapshot and
// drives it with two closed-loop clients for c.seconds.
func runServiceMix(c config) (*outcome, error) {
	if c.tricheckd == "" {
		return nil, fmt.Errorf("--tricheckd is required")
	}
	dir, err := newRunDir(c)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapshot := filepath.Join(dir, "memo.json")
	ref, err := buildSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	// The in-process sweep's heap is dead; hand it back before tricheckd
	// starts, so the two processes do not peak together.
	runtime.GC()
	debug.FreeOSMemory()
	log, err := os.Create(filepath.Join(dir, "tricheckd.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	var setups []float64
	var d *daemon
	for i := 0; i < boots; i++ {
		di, took, err := boot(c.tricheckd, snapshot, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < boots-1 {
			di.stop()
		} else {
			d = di
		}
	}
	defer d.stop()

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	out := &outcome{}
	before, err := readCounters(hc, d)
	if err != nil {
		return nil, err
	}
	src := newMix(c.seed)
	var mu sync.Mutex
	lat := map[bool][]float64{} // keyed by warm
	var reads []float64
	records := map[bool]int{}
	requests := map[bool]int{}
	var exhausted bool
	start := time.Now()
	deadline := start.Add(time.Duration(c.seconds * float64(time.Second)))
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var buckets []bucket
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		buckets = sampleSeconds(stop, d.cmd.Process.Pid, before.cpu, func() (int, int) {
			mu.Lock()
			defer mu.Unlock()
			return records[true] + records[false], requests[true] + requests[false]
		})
	}()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, ok := src.next()
				if !ok {
					mu.Lock()
					exhausted = true
					mu.Unlock()
					return
				}
				t0 := time.Now()
				st, err := verify(hc, d.base, req)
				took := time.Since(t0)
				if err == nil {
					err = st.check(req, ref)
				}
				mu.Lock()
				out.attempted++
				if st.summary != nil {
					// A response that fails a check still took this long.
					lat[req.warm] = append(lat[req.warm], ms(took))
					reads = append(reads, ms(st.self))
					records[req.warm] += st.records
					requests[req.warm]++
				}
				if err != nil {
					out.fail("%v", err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(start)
	close(stop)
	sampler.Wait()
	after, err := readCounters(hc, d)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: cold pool spent after %s; the window ends there\n", window.Round(time.Millisecond))
	}
	if requests[true] == 0 || requests[false] == 0 {
		return nil, fmt.Errorf("no warm or cold response completed (%d failed)", out.failed)
	}
	// Server-side accounting must agree with the streams: every cold
	// record is one execution and every warm record one memo hit.
	executed, hits := after.executed-before.executed, after.hits-before.hits
	if executed != uint64(records[false]) || hits != uint64(records[true]) {
		out.fail("tricheckd executed %d jobs and hit the memo %d times; streams carried %d cold and %d warm records",
			executed, hits, records[false], records[true])
	}
	verdicts := records[true] + records[false]
	// Rates are medians over the window's whole seconds, so a few seconds
	// of contention from outside the benchmark move them less than a
	// whole-window mean would; runs too short for that use the mean.
	rate := float64(verdicts) / window.Seconds()
	reqRate := float64(requests[true]+requests[false]) / window.Seconds()
	cpuPer := us(after.cpu-before.cpu) / float64(verdicts)
	if len(buckets) >= 3 {
		var rs, qs, cs []float64
		for _, b := range buckets {
			if b.records > 0 {
				rs = append(rs, float64(b.records)/b.elapsed.Seconds())
				qs = append(qs, float64(b.requests)/b.elapsed.Seconds())
				cs = append(cs, us(b.cpu)/float64(b.records))
			}
		}
		if len(rs) > 0 {
			rate, reqRate, cpuPer = median(rs), median(qs), median(cs)
		}
	}
	out.metrics = map[string]metric{
		"setup_s":            {median(setups), "s"},
		"verdicts_per_s":     {rate, "1/s"},
		"cpu_us_per_verdict": {cpuPer, "us"},
		"peak_rss_mb":        {rss, "MB"},
		"requests_per_s":     {reqRate, "1/s"},
		"cold_p50_ms":        {median(lat[false]), "ms"},
		"cold_p95_ms":        {quantile(lat[false], 0.95), "ms"},
		"warm_p50_ms":        {median(lat[true]), "ms"},
		"warm_p95_ms":        {quantile(lat[true], 0.95), "ms"},
	}
	out.samples = map[string]int{"cold": len(lat[false]), "warm": len(lat[true]), "setup": len(setups), "seconds": len(buckets)}
	out.counts = map[string]any{
		"records_per_warm_request":   float64(records[true]) / float64(requests[true]),
		"memo_hits_per_warm_request": float64(hits) / float64(requests[true]),
		"executions_per_cold_record": float64(executed) / float64(records[false]),
	}
	out.observed = map[string]any{
		"mallocs_per_verdict": float64(after.mallocs-before.mallocs) / float64(verdicts),
		"gc_cycles":           after.gcRuns - before.gcRuns,
		"client_read_ms_p50":  median(reads),
		"cold_records":        records[false],
		"warm_records":        records[true],
	}
	return out, nil
}
