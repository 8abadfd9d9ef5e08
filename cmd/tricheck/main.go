// Command tricheck runs the paper's RISC-V case study end to end and
// regenerates the Figure 15 results: every litmus-test family evaluated on
// every Table 7 µspec model, under riscv-curr and riscv-ours, for the Base
// and Base+Atomics ISAs.
//
// Usage:
//
//	tricheck [-family wrc] [-isa base|base+a|both] [-variant curr|ours|both]
//	         [-model-file spec.uspec ...] [-lattice]
//	         [-models] [-mappings] [-csv] [-diagnose] [-workers N]
//	         [-cache file] [-corpus dir] [-export dir] [-progress]
//	         [-profile prefix] [-metrics-out file] [-fail-on-bug]
//	         [-backend uhb|opsim|both] [-fail-on-divergence]
//	tricheck top [-family wrc] [-isa ...] [-variant ...] [-workers N]
//	         [-k 10] [-cycle-sample 64] [-json]
//	tricheck coverage [-family wrc] [-isa ...] [-variant ...] [-lattice]
//	         [-model-file spec.uspec ...] [-workers N] [-cache file]
//	         [-discriminate] [-coverage-out file] [-k 10]
//	tricheck coverage diff [-fail] [-json] old.json new.json
//	tricheck models ls [-variant curr|ours|both]
//	tricheck models show <name|file.uspec> [-variant curr|ours]
//	tricheck models lattice [-v]
//
// With no flags it runs the full 1,701-test suite over all 28 stacks on
// the verification farm and prints the Figure 15 tables plus the headline
// per-model totals.
//
// Microarchitecture model flags (a model is data — a µspec spec):
//
//	-model-file f.uspec   verify custom microarchitecture models loaded
//	                      from spec files instead of the Table 7 matrix
//	                      (repeatable; each model pairs with the Figure 15
//	                      mapping of its declared variant)
//	-lattice              sweep every legal microarchitecture of the
//	                      selected variant(s) — the full 50-point (per
//	                      variant) relaxation lattice, not just Table 7
//
// The models subcommand lists the builtin registry (ls), renders one
// model — builtin or spec file — in the spec text format (show), and
// summarizes the legal config lattice with its builtin aliases
// (lattice).
//
// Farm and corpus flags:
//
//	-cache results.json   memoize (test, stack) verdicts in a JSON
//	                      snapshot: the first run writes it, later runs
//	                      re-verify only jobs whose test or stack
//	                      fingerprint changed (a warm identical rerun
//	                      performs zero verifier executions)
//	-corpus dir           verify .litmus files from an on-disk corpus
//	                      instead of the built-in generator suite
//	-export dir           write the selected suite to a corpus directory
//	                      (herd C litmus format) and exit
//	-progress             stream farm progress lines to stderr
//
// Verdict backend flags (the operational second opinion):
//
//	-backend uhb|opsim|both  verdict engine: the axiomatic µhb evaluator
//	                      (default), the operational interleaving
//	                      simulator, or both cross-checked — backend=both
//	                      compares observable-outcome sets per (test,
//	                      stack) and reports any disagreement as a
//	                      Divergence verdict with a trace witness;
//	                      configs without an operational machine are
//	                      skipped (backend=opsim rejects them outright)
//	-fail-on-divergence   exit non-zero (4) when a cross-check divergence
//	                      appears — the self-check CI gate
//
// Observability flags:
//
//	-profile prefix       capture cpu+heap pprof profiles of the sweep to
//	                      PREFIX.{cpu,mem}.pprof (flushed before any
//	                      -fail-on-bug exit)
//	-metrics-out f.json   dump the run's metrics registry — farm, memo
//	                      and per-phase verdict histograms — as JSON
//
// The top subcommand runs the selected sweep on a fresh engine and
// prints a hot-spot cost report: phase totals plus the most expensive
// (test, stack) cells, stacks and tests; -json emits the same report
// machine-readable.
//
// The coverage subcommand runs the selected sweep and reports the
// engine's verification-coverage ledger: which µspec axioms fired edges,
// owned stored (post-dedup) edges and witnessed forbidding cycles, per
// model. -discriminate reduces the (test, config) verdict-vector matrix
// to the minimal suite separating every separable pair of configs
// (greedy set cover); -coverage-out saves the full ledger snapshot as
// JSON; `coverage diff old.json new.json` compares two snapshots,
// flagging verdict flips and axiom-coverage regressions (with -fail as
// a CI gate for model edits).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"tricheck"
	"tricheck/internal/prof"
)

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "models" {
		cmdModels(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		cmdTop(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "coverage" {
		cmdCoverage(os.Args[2:])
		return
	}
	family := flag.String("family", "", "restrict to one litmus family (mp, sb, wrc, rwc, iriw, corr, co-rsdwi, ...)")
	isaFlag := flag.String("isa", "both", "ISA flavour: base, base+a or both")
	variant := flag.String("variant", "both", "MCM version: curr, ours or both")
	var modelFiles multiFlag
	flag.Var(&modelFiles, "model-file", "µspec model spec file to verify instead of the Table 7 matrix (repeatable)")
	lattice := flag.Bool("lattice", false, "sweep every legal microarchitecture config of the selected variant(s), not just Table 7")
	models := flag.Bool("models", false, "print the Table 7 µspec model matrix and exit")
	mappings := flag.Bool("mappings", false, "print the compiler mapping tables (Tables 1-3) and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of formatted tables")
	diagnose := flag.Bool("diagnose", false, "print a µhb cycle/witness diagnosis for the first bug of each stack")
	workers := flag.Int("workers", 0, "parallel farm workers (0 = GOMAXPROCS)")
	cache := flag.String("cache", "", "memoized result cache snapshot (JSON); loaded if present, saved after the run")
	corpusDir := flag.String("corpus", "", "load litmus tests from this corpus directory instead of the generator")
	export := flag.String("export", "", "export the selected tests to this corpus directory and exit")
	progress := flag.Bool("progress", false, "stream farm progress to stderr")
	profile := flag.String("profile", "", "write cpu/heap pprof profiles to PREFIX.{cpu,mem}.pprof")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics registry (farm, memo, verdict phases) to this file as JSON")
	failOnBug := flag.Bool("fail-on-bug", false, "exit non-zero (3) when any Bug verdict appears — lets CI gate on regressions")
	backendFlag := flag.String("backend", "uhb", "verdict backend: uhb (axiomatic µhb), opsim (operational simulator) or both (cross-check)")
	failOnDivergence := flag.Bool("fail-on-divergence", false, "exit non-zero (4) when backend=both finds a cross-check divergence")
	flag.Parse()

	backend, err := tricheck.ParseBackend(*backendFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
		os.Exit(2)
	}

	if *models {
		tricheck.WriteTable7(os.Stdout, tricheck.Curr)
		fmt.Println()
		tricheck.WriteTable7(os.Stdout, tricheck.Ours)
		return
	}
	if *mappings {
		for _, m := range tricheck.Mappings() {
			tricheck.WriteMappingTable(os.Stdout, m)
			fmt.Println()
		}
		return
	}

	var tests []*tricheck.Test
	switch {
	case *corpusDir != "":
		c, err := tricheck.LoadCorpus(*corpusDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
			os.Exit(1)
		}
		if *family == "" {
			tests = c.Tests()
		} else {
			tests = c.Subset(*family)
			if len(tests) == 0 {
				fmt.Fprintf(os.Stderr, "tricheck: corpus %s has no family %q (have %v)\n", *corpusDir, *family, c.Families())
				os.Exit(2)
			}
		}
	case *family == "":
		tests = tricheck.PaperSuite()
	default:
		shape := tricheck.ShapeByName(*family)
		if shape == nil {
			fmt.Fprintf(os.Stderr, "tricheck: unknown family %q\n", *family)
			os.Exit(2)
		}
		tests = shape.Generate()
	}

	if *export != "" {
		n, err := tricheck.ExportCorpus(*export, tests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d tests to %s\n", n, *export)
		return
	}

	variantSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "variant" {
			variantSet = true
		}
	})
	stacks, err := selectStacks(*isaFlag, *variant, variantSet, modelFiles, *lattice)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
		os.Exit(2)
	}
	if err := tricheck.ValidateBackendStacks(backend, stacks); err != nil {
		fmt.Fprintf(os.Stderr, "tricheck: %v (use -backend both to cross-check where possible)\n", err)
		os.Exit(2)
	}

	eng := tricheck.NewEngine()
	if *cache != "" {
		if err := tricheck.LoadMemoSnapshotLenient(eng, *cache, os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck: loading cache: %v\n", err)
			os.Exit(1)
		}
	}

	psess, err := prof.Begin(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
		os.Exit(1)
	}

	var events chan tricheck.Progress
	done := make(chan struct{})
	if *progress {
		events = make(chan tricheck.Progress, 1024)
		go func() {
			tricheck.StreamProgress(os.Stderr, events, 0)
			close(done)
		}()
	} else {
		close(done)
	}
	results, err := eng.SweepStreamBackend(context.Background(), tests, stacks, *workers, backend, events)
	<-done
	// Finalize profiles here, not in a defer: the -fail-on-bug path below
	// exits via os.Exit(3), which would skip defers and truncate the CPU
	// profile. The profile window is exactly the sweep.
	if perr := psess.Stop(); perr != nil {
		fmt.Fprintf(os.Stderr, "tricheck: finalizing profiles: %v\n", perr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
		os.Exit(1)
	}

	if *csv {
		tricheck.WriteCSV(os.Stdout, results)
	} else {
		fmt.Printf("TriCheck: %d litmus tests × %d full-stack configurations\n\n", len(tests), len(stacks))
		tricheck.WriteFigure15(os.Stdout, results)
	}

	if *cache != "" {
		if err := eng.SaveMemoSnapshot(*cache); err != nil {
			fmt.Fprintf(os.Stderr, "tricheck: saving cache: %v\n", err)
			os.Exit(1)
		}
	}
	stats := eng.LastFarmStats()
	fmt.Fprintf(os.Stderr, "farm: %d jobs (%d unique), %d executed, %d cache hits, %d stolen; %d verifier executions total\n",
		stats.Jobs, stats.Unique, stats.Executed, stats.CacheHits, stats.Stolen, eng.Executions())

	if *diagnose {
		fmt.Println("\n── diagnoses (first bug per stack) ──")
		for _, res := range results {
			for _, r := range res.Results {
				if r.Verdict == tricheck.Bug {
					d, err := eng.Diagnose(r)
					if err != nil {
						fmt.Fprintf(os.Stderr, "diagnose: %v\n", err)
						break
					}
					fmt.Println(d)
					break
				}
			}
		}
	}

	// Write metrics before the -fail-on-bug exit so a gating CI run still
	// leaves its telemetry behind for triage.
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err == nil {
			err = tricheck.WriteMetricsJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tricheck: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}

	if *failOnBug {
		bugs := 0
		for _, res := range results {
			bugs += res.Tally.Bugs
		}
		if bugs > 0 {
			fmt.Fprintf(os.Stderr, "tricheck: -fail-on-bug: %d Bug verdicts\n", bugs)
			os.Exit(3)
		}
	}
	if divergent := eng.Divergences(); divergent > 0 {
		fmt.Fprintf(os.Stderr, "tricheck: backend cross-check: %d divergence(s) between µhb and opsim\n", divergent)
		if *failOnDivergence {
			os.Exit(4)
		}
	}
}

// selectStacks resolves the sweep's stacks from the three model
// sources: -model-file specs, the -lattice enumeration, or (default)
// the builtin Table 7 matrix via the variant selector.
func selectStacks(isa, variant string, variantSet bool, modelFiles []string, lattice bool) ([]tricheck.Stack, error) {
	switch {
	case len(modelFiles) > 0 && lattice:
		return nil, fmt.Errorf("-model-file and -lattice are mutually exclusive")
	case len(modelFiles) > 0:
		return tricheck.SelectStacksFiles(isa, modelFiles, variantSet)
	case lattice:
		var models []*tricheck.Model
		for _, v := range selectedVariants(variant) {
			for _, c := range tricheck.EnumerateModelConfigs(v) {
				m, err := tricheck.NewModel(c)
				if err != nil {
					return nil, err
				}
				models = append(models, m)
			}
		}
		if models == nil {
			return nil, fmt.Errorf("unknown MCM version %q (want curr, ours or both)", variant)
		}
		return tricheck.SelectStacksModels(isa, models)
	default:
		return tricheck.SelectStacks(isa, variant)
	}
}

// selectedVariants expands a variant selector; unknown selectors yield
// nil (the caller reports the error).
func selectedVariants(variant string) []tricheck.Variant {
	switch variant {
	case "curr":
		return []tricheck.Variant{tricheck.Curr}
	case "ours":
		return []tricheck.Variant{tricheck.Ours}
	case "both":
		return []tricheck.Variant{tricheck.Curr, tricheck.Ours}
	}
	return nil
}

// cmdModels implements the models subcommand: the registry and lattice
// as a user-facing catalog.
func cmdModels(args []string) {
	if len(args) == 0 {
		modelsUsage()
	}
	switch args[0] {
	case "ls":
		fs := flag.NewFlagSet("models ls", flag.ExitOnError)
		variant := fs.String("variant", "both", "MCM version: curr, ours or both")
		fs.Parse(args[1:])
		vs := selectedVariants(*variant)
		if vs == nil {
			fatalModels(fmt.Errorf("unknown MCM version %q", *variant))
		}
		want := map[tricheck.Variant]bool{}
		for _, v := range vs {
			want[v] = true
		}
		fmt.Printf("%-20s %-11s %-32s %s\n", "NAME", "VARIANT", "FINGERPRINT", "DESCRIPTION")
		for _, m := range tricheck.BuiltinModels() {
			if !want[m.Variant] {
				continue
			}
			fmt.Printf("%-20s %-11s %-32s %s\n", m.Name, m.Variant, tricheck.ModelFingerprint(m), m.Description)
		}
	case "show":
		fs := flag.NewFlagSet("models show", flag.ExitOnError)
		variant := fs.String("variant", "curr", "MCM version: curr or ours")
		fs.Parse(args[1:])
		if fs.NArg() < 1 {
			modelsUsage()
		}
		arg := fs.Arg(0)
		// Allow flags after the name too ("show rMM -variant ours").
		fs.Parse(fs.Args()[1:])
		if fs.NArg() != 0 {
			modelsUsage()
		}
		// A readable file wins; otherwise resolve a builtin by name.
		if _, err := os.Stat(arg); err == nil {
			// A spec file carries its own variant: reject an explicit
			// -variant like every other -model-file frontend does.
			fs.Visit(func(f *flag.Flag) {
				if f.Name == "variant" {
					fatalModels(fmt.Errorf("-variant selects builtin models; the spec file %s carries its own variant — drop one of the two", arg))
				}
			})
			models, err := tricheck.LoadModelFiles([]string{arg})
			if err != nil {
				fatalModels(err)
			}
			printSpec(models[0])
			return
		}
		m, err := tricheck.ResolveModel(arg, *variant)
		if err != nil {
			fatalModels(err)
		}
		printSpec(m)
	case "lattice":
		fs := flag.NewFlagSet("models lattice", flag.ExitOnError)
		verbose := fs.Bool("v", false, "list every lattice config with its fingerprint and builtin alias")
		fs.Parse(args[1:])
		builtinBy := map[string]*tricheck.Model{}
		for _, m := range tricheck.BuiltinModels() {
			if _, ok := builtinBy[tricheck.ModelFingerprint(m)]; !ok {
				builtinBy[tricheck.ModelFingerprint(m)] = m
			}
		}
		total := 0
		for _, v := range []tricheck.Variant{tricheck.Curr, tricheck.Ours} {
			cfgs := tricheck.EnumerateModelConfigs(v)
			total += len(cfgs)
			named := 0
			for _, c := range cfgs {
				if _, ok := builtinBy[c.Fingerprint()]; ok {
					named++
				}
			}
			fmt.Printf("%s: %d legal configs (%d shipped as builtins, %d unnamed)\n",
				v, len(cfgs), named, len(cfgs)-named)
			if *verbose {
				for _, c := range cfgs {
					alias := ""
					if b, ok := builtinBy[c.Fingerprint()]; ok {
						alias = "  = " + b.FullName()
					}
					fmt.Printf("  %-24s %s%s\n", c.Name, c.Fingerprint(), alias)
				}
			}
		}
		fmt.Printf("total: %d legal microarchitectures across both variants\n", total)
	default:
		modelsUsage()
	}
}

func printSpec(m *tricheck.Model) {
	fmt.Printf("(* fingerprint %s *)\n", tricheck.ModelFingerprint(m))
	fmt.Print(m.Config.EmitSpec())
}

func fatalModels(err error) {
	fmt.Fprintf(os.Stderr, "tricheck: %v\n", err)
	os.Exit(2)
}

func modelsUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  tricheck models ls [-variant curr|ours|both]
  tricheck models show <name|file.uspec> [-variant curr|ours]
  tricheck models lattice [-v]`)
	os.Exit(2)
}
