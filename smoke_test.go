package ibasec

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Compile-and-run smoke tests: every main package in the repo must
// build and exit cleanly. These catch breakage no unit test sees —
// flag wiring, CSV plumbing, example drift against the facade API.

// buildBinary compiles a main package into the test's temp dir.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// runBinary executes bin and returns its combined output.
func runBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestSmokeIbsim builds the CLI and drives its fast subcommands,
// including one real sweep through the worker pool and CSV writer.
func TestSmokeIbsim(t *testing.T) {
	bin := buildBinary(t, "./cmd/ibsim")

	if out := runBinary(t, bin, "config"); !strings.Contains(out, "Table 1") {
		t.Errorf("config output missing header:\n%s", out)
	}
	if out := runBinary(t, bin, "table2"); !strings.Contains(out, "SIF") {
		t.Errorf("table2 output missing SIF row:\n%s", out)
	}
	if out := runBinary(t, bin, "-quick", "trace", "-events", "5"); !strings.Contains(out, "Packet-lifecycle trace") {
		t.Errorf("trace output missing header:\n%s", out)
	}
	if testing.Short() {
		return
	}
	csvDir := t.TempDir()
	out := runBinary(t, bin, "-quick", "-jobs", "2", "-csv", csvDir, "fig6")
	if !strings.Contains(out, "WithKey") {
		t.Errorf("fig6 output missing WithKey rows:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig6.csv")); err != nil {
		t.Errorf("fig6.csv not written: %v", err)
	}
	if out := runBinary(t, bin, "attacks"); !strings.Contains(out, "M_Key") {
		t.Errorf("attacks output missing M_Key threat:\n%s", out)
	}
}

// TestSmokeExamples builds every example and runs it to completion.
// The two long-running walkthroughs are skipped in -short mode but
// still compiled. Each example must print its golden,
// testdata/golden/<name>.txt, byte for byte; refresh with
// `go test -run TestSmokeExamples -update .`.
func TestSmokeExamples(t *testing.T) {
	slow := map[string]bool{"quickstart": true, "dos-defense": true}
	for _, name := range []string{
		"dos-defense", "fabric-tour", "mac-packet",
		"quickstart", "secure-rdma", "subnet-bringup",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := buildBinary(t, "./examples/"+name)
			if testing.Short() && slow[name] {
				t.Skip("built only: multi-second walkthrough")
			}
			checkGoldenBytes(t, name+".txt", []byte(runBinary(t, bin)))
		})
	}
}
