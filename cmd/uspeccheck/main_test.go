package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildOnce compiles the uspeccheck binary once per test process, into
// buildDir, which TestMain removes.
var buildOnce = sync.Once{}
var buildDir, builtBin string
var buildErr error

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func uspeccheckBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "uspeccheck-e2e-")
		if buildErr != nil {
			return
		}
		builtBin = filepath.Join(buildDir, "uspeccheck")
		out, err := exec.Command("go", "build", "-o", builtBin, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			builtBin = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building uspeccheck: %v\n%s", buildErr, builtBin)
	}
	return builtBin
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}

// TestCLIExplainWitnessDOT drives every diagnostics flag on the default
// wrc test: the specified outcome is observable on nMM/riscv-curr, so
// Explain names the witnessing execution, the witness prints a timeline
// and the DOT export renders the acyclic graph.
func TestCLIExplainWitnessDOT(t *testing.T) {
	bin := uspeccheckBin(t)
	out, err := exec.Command(bin, "-explain", "-witness", "-dot", "r0=1; r1=1; r2=0").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"* observable    r0=1; r1=1; r2=0",
		"\nobservable on nMM/riscv-curr via execution ",
		"OBSERVABLE — one µhb-consistent timeline:",
		"digraph \"wrc[rlx,rlx,rel,acq,rlx]\" {",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestCLIDOTNotCandidate: asking for the graph of an outcome no
// execution produces is an error, not an empty graph.
func TestCLIDOTNotCandidate(t *testing.T) {
	bin := uspeccheckBin(t)
	out, err := exec.Command(bin, "-dot", "r0=99").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(string(out), `outcome "r0=99" is not a candidate`) {
		t.Errorf("missing not-a-candidate error:\n%s", out)
	}
}
