package ibasec

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden determinism tests for the three paper figures. Each sweep
// below runs a quick (2 ms) configuration through the same experiment
// drivers and CSV renderer that cmd/ibsim uses, then diffs the output
// byte-for-byte against a checked-in golden file. Any change to
// simulator behaviour — event ordering, RNG draws, CRC handling, routing
// — shows up here as a one-line diff instead of a silent drift. They
// live here rather than in cmd/ibsim's TestGolden table (which pins the
// robustness sweeps and the ablations through the CLI) because their two-point load
// lists are not expressible through ibsim's flags.
//
// Refresh the goldens after an intentional behaviour change with:
//
//	go test -run TestGolden -update . ./cmd/ibsim
var updateGolden = flag.Bool("update", false, "rewrite golden CSV files")

// quickConfig mirrors cmd/ibsim's -quick base configuration (seed 1,
// 2 ms simulated, 200 us warmup) so golden files generated here are
// directly comparable with `ibsim -quick` output.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.Duration = 2 * Millisecond
	cfg.Warmup = 200 * Microsecond
	return cfg
}

// goldenPool runs sweep jobs on a few workers. Result order is fixed by
// job order, not completion order, so worker count cannot affect bytes
// (cmd/ibsim's TestGolden replays its sweeps at -jobs 4 and -jobs 1).
func goldenPool() *Pool {
	return NewPool(PoolOptions{Workers: 4})
}

func checkGolden(t *testing.T, file string, table CSVTable) {
	t.Helper()
	checkGoldenBytes(t, file, table.Bytes())
}

// checkGoldenBytes diffs got line by line against the golden file, or
// rewrites the file under -update.
func checkGoldenBytes(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	t.Errorf("%s drifted from golden", file)
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
}

// TestGoldenLatency pins the Figure 1 DoS latency sweep (realtime
// class, 0..2 attackers).
func TestGoldenLatency(t *testing.T) {
	base := quickConfig()
	base.RealtimeLoad = 0.7
	base.BestEffortLoad = 0.65
	rows, err := Fig1(context.Background(), goldenPool(), ClassRealtime, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "latency_quick.csv", Table("fig1_realtime", rows))
}

// TestGoldenDoS pins the Figure 5 enforcement-mode comparison at two
// load points.
func TestGoldenDoS(t *testing.T) {
	base := quickConfig()
	base.AttackCycle = base.Duration / 4
	rows, err := Fig5(context.Background(), goldenPool(), []float64{0.4, 0.6}, 0.05, base)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dos_quick.csv", Table("fig5", rows))
}

// TestGoldenKeys pins the Figure 6 authentication-overhead sweep at two
// load points with QP-level keys.
func TestGoldenKeys(t *testing.T) {
	rows, err := Fig6(context.Background(), goldenPool(), []float64{0.4, 0.6}, QPLevel, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "keys_quick.csv", Table("fig6", rows))
}

// TestGoldenRerunIdentical runs the cheapest sweep twice in one process
// and requires identical bytes — catching nondeterminism (map iteration,
// shared RNG state) that a golden file alone would only catch across
// runs.
func TestGoldenRerunIdentical(t *testing.T) {
	run := func() []byte {
		rows, err := Fig6(context.Background(), goldenPool(), []float64{0.4}, QPLevel, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return Table("fig6", rows).Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-process rerun diverged:\n%s\n---\n%s", a, b)
	}
}
