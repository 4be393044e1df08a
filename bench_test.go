// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigN/BenchmarkTableN target runs the
// corresponding experiment at reduced simulated duration so that
// `go test -bench=.` finishes quickly; cmd/ibsim runs the full-length
// versions and prints the rows.
package ibasec

import (
	"context"
	"testing"
	"time"
)

// quick returns a short-duration base config for benchmarking.
func quick() Config {
	cfg := DefaultConfig()
	cfg.Duration = 2 * Millisecond
	cfg.Warmup = 200 * Microsecond
	return cfg
}

// ---- Figure 1: DoS impact vs number of attackers ----

func BenchmarkFig1Realtime(b *testing.B) {
	base := quick()
	base.RealtimeLoad = 0.7
	base.BestEffortLoad = 0
	for i := 0; i < b.N; i++ {
		rows, err := Fig1(context.Background(), nil, ClassRealtime, 4, base)
		if err != nil {
			b.Fatal(err)
		}
		if rows[4].QueuingUS <= rows[0].QueuingUS {
			b.Fatalf("Fig1(a) shape broken: %v -> %v", rows[0].QueuingUS, rows[4].QueuingUS)
		}
	}
}

func BenchmarkFig1BestEffort(b *testing.B) {
	base := quick()
	base.BestEffortLoad = 0.65
	for i := 0; i < b.N; i++ {
		rows, err := Fig1(context.Background(), nil, ClassBestEffort, 4, base)
		if err != nil {
			b.Fatal(err)
		}
		if rows[4].QueuingUS <= rows[0].QueuingUS {
			b.Fatalf("Fig1(b) shape broken: %v -> %v", rows[0].QueuingUS, rows[4].QueuingUS)
		}
	}
}

// ---- Figure 5: enforcement designs under DoS ----

func BenchmarkFig5(b *testing.B) {
	base := quick()
	base.AttackCycle = Millisecond
	for i := 0; i < b.N; i++ {
		rows, err := Fig5(context.Background(), nil, []float64{0.4, 0.7}, 0.05, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// Per-mode single runs, for -bench filtering.
func benchMode(b *testing.B, mode Mode) {
	cfg := quick()
	cfg.Enforcement = mode
	cfg.Attackers = 4
	cfg.AttackDuty = 0.05
	cfg.AttackCycle = Millisecond
	cfg.BestEffortLoad = 0.6
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5NoFiltering(b *testing.B) { benchMode(b, NoFiltering) }
func BenchmarkFig5DPT(b *testing.B)         { benchMode(b, DPT) }
func BenchmarkFig5IF(b *testing.B)          { benchMode(b, IF) }
func BenchmarkFig5SIF(b *testing.B)         { benchMode(b, SIF) }

// ---- Figure 6: authentication overhead ----

func BenchmarkFig6NoKey(b *testing.B) {
	cfg := quick()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6WithKeyQPLevel(b *testing.B) {
	cfg := quick()
	cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: QPLevel}
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AuthFail != 0 {
			b.Fatalf("%d auth failures", res.AuthFail)
		}
	}
}

func BenchmarkFig6WithKeyPartitionLevel(b *testing.B) {
	cfg := quick()
	cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.AuthFail != 0 {
			b.Fatalf("%d auth failures", res.AuthFail)
		}
	}
}

// ---- Table 2: cost model (pure computation) ----

func BenchmarkTable2CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table2(4, 0.01, 2)
		if len(rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// ---- Table 3: attack matrix ----

func BenchmarkTable3AttackMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := AttackMatrix(int64(i + 1))
		for _, r := range rows {
			if r.SucceededAuth {
				b.Fatalf("%s: defence failed", r.Key)
			}
		}
	}
}

// ---- Table 4: MAC throughput on the paper's 1500-bit message ----
// (These complement the per-algorithm testing.B benchmarks in
// internal/mac; here the Table4 harness itself is exercised.)

func BenchmarkTable4Harness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table4(188, 5*time.Millisecond, 2.1)
		if len(rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// ---- Ablation: SIF exposure vs attack duty cycle ----

func BenchmarkAblationDutySweep(b *testing.B) {
	base := quick()
	base.AttackCycle = Millisecond
	for i := 0; i < b.N; i++ {
		if _, err := SweepDuty(context.Background(), nil, []float64{0.01, 0.25}, 0.4, base); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: MAC engine throughput vs link speed (section 5.2/7) ----

// ---- Ablation: management DoS against the Subnet Manager (section 7) ----

func BenchmarkAblationSMFlood(b *testing.B) {
	base := quick()
	for i := 0; i < b.N; i++ {
		rows, err := SMFloodSweep(context.Background(), nil, []float64{0, 200e3}, base)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].RegLatencyUS <= rows[0].RegLatencyUS {
			b.Fatalf("flood had no effect: %.2f vs %.2f", rows[0].RegLatencyUS, rows[1].RegLatencyUS)
		}
	}
}

func BenchmarkAblationAuthRate(b *testing.B) {
	base := quick()
	for i := 0; i < b.N; i++ {
		rows, err := AuthRateSweep(context.Background(), nil, PaperTable4Rates(), 0.5, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// ---- Runner: serial vs parallel sweep orchestration ----
// The same Figure 5 sweep executed through the internal/runner pool at
// different worker counts. On a multi-core host the parallel variant
// approaches points/cores wall-clock; results are byte-identical either
// way (TestFig5ParallelMatchesSerial in internal/core).

func benchHarnessFig5(b *testing.B, workers int) {
	base := quick()
	base.AttackCycle = Millisecond
	pool := NewPool(PoolOptions{Workers: workers})
	for i := 0; i < b.N; i++ {
		rows, err := Fig5(context.Background(), pool, []float64{0.4, 0.6}, 0.05, base)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkHarnessFig5Jobs1(b *testing.B) { benchHarnessFig5(b, 1) }
func BenchmarkHarnessFig5Jobs2(b *testing.B) { benchHarnessFig5(b, 2) }
func BenchmarkHarnessFig5Jobs4(b *testing.B) { benchHarnessFig5(b, 4) }
