// Command perfbench is the repository's benchmark: three closed-loop
// workloads that measure the TriCheck toolflow end to end, and a traced
// replay that times each layer from outside by calling its public
// functions.
//
// Run it from the repository root through its launcher, which builds
// this package and cmd/tricheckd from the checkout:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// Workloads (BENCHMARK.json gives the reason for each):
//
//	paper-sweep  in process: core.Engine.Sweep of the 1,701-test paper
//	             suite over the 28 RISC-V stacks, one sweep at a time
//	service-mix  tricheckd as a subprocess, booted from a memo snapshot
//	             of the paper sweep; two clients send /v1/verify
//	             requests, half warm (served from the memo) and half cold
//	             (an inline lattice spec nobody has verified)
//	opsim-both   in process: SweepStreamBackend with BackendBoth over
//	             mp, sb, lb, corr, co-rsdwi and wrc on the Base ISA
//
// Every operation's verdicts are checked against pinned expectations; an
// operation that fails a check counts as failed and makes the run
// incorrect. The last line of standard output is the result object the
// benchmark contract defines; the line before it carries the
// environment, sample counts and the deterministic work counts.
//
// End-to-end metrics (--trace 0), the same names on every workload:
//
//	setup_s             median set-up of one operation: suite generation,
//	                    stack selection and engine construction in
//	                    process; exec until /healthz (snapshot load
//	                    included) for tricheckd
//	verdicts_per_s      verdicts delivered per second
//	cpu_us_per_verdict  CPU time of the process doing the verification
//	                    per verdict (this process in process; tricheckd
//	                    for service-mix)
//	peak_rss_mb         VmHWM of that process
//	requests_per_s      operations completed per second: sweeps (set-up
//	                    included) in process, /v1/verify requests for
//	                    service-mix
//	cold_p50_ms ...     latency percentiles of cold and warm operations.
//	warm_p95_ms         In process an operation is one whole sweep; a
//	                    cold sweep runs on a fresh engine, a warm one
//	                    reuses the engine of the sweep before it (its
//	                    C11 cache and overlay pools are warm; no memo).
//	                    For service-mix a warm request is served from
//	                    the memo cache and a cold one executes every job.
//	                    A service-mix class gets about 1,300 to 1,800
//	                    requests in 30 s on two CPUs, too close to 1,000
//	                    to keep ten samples beyond a p99, so the tail is
//	                    p95. In process a class has only a few sweeps,
//	                    and its p95 lies near the slowest of them.
//
// The traced run (--trace 1) is described in trace.go.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named measurement of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark contract requires as the last line
// of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line into the workloads.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	tricheckd string // path of the tricheckd binary (service-mix)
	workdir   string // scratch directory inside the checkout
}

// outcome is what a workload or the traced run reports back to main.
type outcome struct {
	attempted, failed int
	// failures holds the first few failure messages, for standard error.
	failures []string
	metrics  map[string]metric
	// samples counts the observations behind each reported percentile.
	samples map[string]int
	// counts are the deterministic work counts: they repeat exactly for
	// a seed.
	counts map[string]any
	// observed are further per-run figures that do not repeat exactly
	// (allocation counts move with GC timing).
	observed map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-sweep": func(c config) (*outcome, error) { return runSweepWorkload(c, paperSweep) },
	"opsim-both":  func(c config) (*outcome, error) { return runSweepWorkload(c, opsimBoth) },
	"service-mix": runServiceMix,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload: paper-sweep, service-mix or opsim-both")
	flag.Int64Var(&c.seed, "seed", 1, "seed from which every input is derived")
	flag.Float64Var(&c.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced replay reporting per-layer metrics; 0 = end-to-end metrics")
	flag.StringVar(&c.tricheckd, "tricheckd", "", "tricheckd binary (built by run.sh)")
	flag.StringVar(&c.workdir, "workdir", ".bench_build", "scratch directory for snapshots and traces")
	flag.Parse()
	run := workloads[c.workload]
	if run == nil {
		fatalf("unknown workload %q (want paper-sweep, service-mix or opsim-both)", c.workload)
	}
	if c.seconds <= 0 || (trace != 0 && trace != 1) {
		fatalf("--seconds must be positive and --trace 0 or 1")
	}
	if trace == 1 {
		run = runTrace
	}
	out, err := run(c)
	if err != nil {
		fatalf("%s: %v", c.workload, err)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	info := map[string]any{
		"workload":   c.workload,
		"trace":      trace,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"samples":    out.samples,
		"counts":     out.counts,
		"observed":   out.observed,
	}
	emit(info)
	emit(result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics})
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding output: %v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// commit names the checked-out commit when the checkout is a git work
// tree, read from .git without running git; "unknown" otherwise (the
// source digest still identifies the code).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// newRunDir makes a fresh scratch directory for one run under workdir.
func newRunDir(c config) (string, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.workdir, fmt.Sprintf("%s-%d-", c.workload, time.Now().UnixNano()))
}
