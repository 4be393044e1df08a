package ibasec

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden determinism tests. Each sweep below runs a quick (2 ms)
// configuration through the same experiment drivers and CSV renderers
// that cmd/ibsim uses, then diffs the output byte-for-byte against a
// checked-in golden file. Any change to simulator behaviour — event
// ordering, RNG draws, CRC handling, routing — shows up here as a
// one-line diff instead of a silent drift.
//
// Refresh the goldens after an intentional behaviour change with:
//
//	go test -run TestGolden -update ./...
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
// (TestGoldenFaultsMatchesCLIQuick proves this against a serial run).
func goldenPool() *Pool {
	return NewPool(PoolOptions{Workers: 4, Retries: 1})
}

func checkGolden(t *testing.T, file string, table CSVTable) {
	t.Helper()
	got := table.Bytes()
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
	rows, err := Fig1Ctx(context.Background(), goldenPool(), ClassRealtime, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "latency_quick.csv", Fig1CSV("fig1_realtime", rows))
}

// TestGoldenDoS pins the Figure 5 enforcement-mode comparison at two
// load points.
func TestGoldenDoS(t *testing.T) {
	base := quickConfig()
	base.AttackCycle = base.Duration / 4
	rows, err := Fig5Ctx(context.Background(), goldenPool(), []float64{0.4, 0.6}, 0.05, base)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dos_quick.csv", Fig5CSV(rows))
}

// TestGoldenKeys pins the Figure 6 authentication-overhead sweep at two
// load points with QP-level keys.
func TestGoldenKeys(t *testing.T) {
	rows, err := Fig6Ctx(context.Background(), goldenPool(), []float64{0.4, 0.6}, QPLevel, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "keys_quick.csv", Fig6CSV(rows))
}

// TestGoldenFaultsMatchesCLIQuick reruns the exact configuration behind
// testdata/golden/faults_quick.csv (the golden scripts/ci.sh diffs
// against `ibsim -quick ... faults -bers 0,1e-5 -kills 0,2`) with a nil
// pool, i.e. fully serial. Matching the same golden the parallel CLI
// produces proves both that the sweep is deterministic and that worker
// scheduling cannot leak into results.
func TestGoldenFaultsMatchesCLIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("12-point chaos sweep, serial")
	}
	rows, err := FaultsSweepCtx(context.Background(), nil, []float64{0, 1e-5}, []int{0, 2}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "faults_quick.csv", FaultsCSV(rows))
}

// TestGoldenRerunIdentical runs the cheapest sweep twice in one process
// and requires identical bytes — catching nondeterminism (map iteration,
// shared RNG state) that a golden file alone would only catch across
// runs.
func TestGoldenRerunIdentical(t *testing.T) {
	run := func() []byte {
		rows, err := Fig6Ctx(context.Background(), goldenPool(), []float64{0.4}, QPLevel, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return Fig6CSV(rows).Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-process rerun diverged:\n%s\n---\n%s", a, b)
	}
}

// TestGoldenFailover pins the SM-failover / key-rotation sweep (the
// exact configuration scripts/ci.sh race-smokes via `ibsim -quick ...
// failover -standbys 1,2 -heartbeats-us 50 -rekeys-us 0,300`) and proves
// serial/parallel equivalence: the same sweep through the worker pool
// and through a nil (serial) pool must both match the golden bytes.
func TestGoldenFailover(t *testing.T) {
	parallel, err := FailoverSweepCtx(context.Background(), goldenPool(), []int{1, 2}, []int{50}, []int{0, 300}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "failover_quick.csv", FailoverCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := FailoverSweepCtx(context.Background(), nil, []int{1, 2}, []int{50}, []int{0, 300}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FailoverCSV(parallel).Bytes(), FailoverCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}

// TestGoldenDrift pins the policy-drift sweep (the exact configuration
// scripts/ci.sh race-smokes via `ibsim -quick ... drift -periods-us
// 0,200,50`) and proves serial/parallel equivalence the same way
// TestGoldenFailover does.
func TestGoldenDrift(t *testing.T) {
	parallel, err := DriftSweepCtx(context.Background(), goldenPool(), []int{0, 200, 50}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "drift_quick.csv", DriftCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := DriftSweepCtx(context.Background(), nil, []int{0, 200, 50}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := DriftCSV(parallel).Bytes(), DriftCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}

// TestGoldenSplitBrain pins the subnet-bisection / merge-reconciliation
// sweep (the exact configuration scripts/ci.sh race-smokes via `ibsim
// -quick ... splitbrain`) and proves serial/parallel equivalence the
// same way TestGoldenFailover does.
func TestGoldenSplitBrain(t *testing.T) {
	parts, hbs, rekeys := []int{80, 160, 320}, []int{10, 20}, []int{0, 60}
	parallel, err := SplitBrainSweepCtx(context.Background(), goldenPool(), parts, hbs, rekeys, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "splitbrain_quick.csv", SplitBrainCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := SplitBrainSweepCtx(context.Background(), nil, parts, hbs, rekeys, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := SplitBrainCSV(parallel).Bytes(), SplitBrainCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}

// TestGoldenCongestion pins the FECN/BECN congestion-control sweep (the
// exact configuration scripts/ci.sh race-smokes via `ibsim -quick ...
// congestion -rates 0.5,1.0`) and proves serial/parallel equivalence the
// same way TestGoldenFailover does.
func TestGoldenCongestion(t *testing.T) {
	rates := []float64{0.5, 1.0}
	parallel, err := CongestionSweepCtx(context.Background(), goldenPool(), rates, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "congestion_quick.csv", CongestionCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := CongestionSweepCtx(context.Background(), nil, rates, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := CongestionCSV(parallel).Bytes(), CongestionCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}

// TestGoldenHealth pins the flaky-link health-plane sweep (the exact
// configuration scripts/ci.sh race-smokes via `ibsim -quick ... health
// -bers 1e-4`) and proves serial/parallel equivalence the same way
// TestGoldenFailover does.
func TestGoldenHealth(t *testing.T) {
	bers := []float64{1e-4}
	parallel, err := HealthSweepCtx(context.Background(), goldenPool(), bers, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "health_quick.csv", HealthCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := HealthSweepCtx(context.Background(), nil, bers, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := HealthCSV(parallel).Bytes(), HealthCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}

// TestGoldenAPM pins the RC recovery / path-migration sweep (the exact
// configuration scripts/ci.sh race-smokes via `ibsim -quick ... apm
// -bers 0,1e-5 -kills 0,1`) and proves serial/parallel equivalence the
// same way TestGoldenFailover does.
func TestGoldenAPM(t *testing.T) {
	parallel, err := APMSweepCtx(context.Background(), goldenPool(), []float64{0, 1e-5}, []int{0, 1}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "apm_quick.csv", APMCSV(parallel))

	if testing.Short() {
		return
	}
	serial, err := APMSweepCtx(context.Background(), nil, []float64{0, 1e-5}, []int{0, 1}, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := APMCSV(parallel).Bytes(), APMCSV(serial).Bytes(); !bytes.Equal(a, b) {
		t.Fatalf("serial sweep diverged from parallel:\n%s\n---\n%s", b, a)
	}
}
