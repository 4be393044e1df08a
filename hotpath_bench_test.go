// End-to-end hot-path benchmark: a small cluster driven start to finish
// through the public API, so one op covers the whole per-packet pipeline
// — workload generation, transport seal, HCA injection, switch lookup +
// VL arbitration, link serialization, CRC/auth verification, delivery.
// scripts/bench.sh records its ns/op and allocs/op in BENCH_simcore.json
// and scripts/ci.sh fails on a >25% regression against that baseline.
package ibasec

import "testing"

// hotPathConfig is the fixed small fabric the hot-path benchmarks run:
// 2x2 mesh, one partition, best-effort traffic at 60% load for 500 us.
// Small enough that -benchtime=100x stays fast, busy enough that the
// steady-state per-packet path dominates over cluster setup.
func hotPathConfig(auth bool) Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.NumPartitions = 1
	cfg.Duration = 500 * Microsecond
	cfg.Warmup = 50 * Microsecond
	cfg.RealtimeLoad = 0
	cfg.BestEffortLoad = 0.6
	if auth {
		cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
	}
	return cfg
}

func benchHotPath(b *testing.B, auth bool) {
	cfg := hotPathConfig(auth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DeliveredLegit == 0 {
			b.Fatal("hot path delivered nothing")
		}
	}
}

// BenchmarkHotPath is the plain-ICRC data path (no authentication).
func BenchmarkHotPath(b *testing.B) { benchHotPath(b, false) }

// BenchmarkHotPathAuth signs and verifies every packet (UMAC-32 tags in
// the ICRC field, partition-level keys), exercising the invariant-region
// scratch path on top of the plain pipeline.
func BenchmarkHotPathAuth(b *testing.B) { benchHotPath(b, true) }

// BenchmarkCongestionHotPath runs the hot path with the Congestion
// Control Annex armed and a line-rate incast flood driving it: FECN
// marking at the switches, CNP reflection at the victim, and CCT
// throttling at the attacker all run every op. Its envelope entry bounds
// the cost of the full feedback loop; the plain BenchmarkHotPath entry
// (congestion control off) holds the no-feature path to its recorded
// allocation count, so merging the annex cannot tax runs that never
// enable it.
func BenchmarkCongestionHotPath(b *testing.B) {
	cfg := hotPathConfig(false)
	cfg.Congestion = DefaultCCParams()
	cfg.Attackers = 1
	cfg.AttackClass = ClassBestEffort
	cfg.AttackIncast = true
	cfg.AttackRate = 1.0
	cfg.AttackCycle = cfg.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DeliveredLegit == 0 {
			b.Fatal("hot path delivered nothing")
		}
		if res.FECNMarked == 0 || res.CCTThrottled == 0 {
			b.Fatal("congestion control never engaged — benchmark measures nothing")
		}
	}
}

// BenchmarkHealthSweep runs the hot path with the performance manager
// armed at a short sweep period, so every op carries the full health
// plane: PortCounters Get MADs over VL15 on every watched inter-switch
// link, EWMA scoring, and trap arming. Its envelope entry bounds the
// telemetry overhead; the plain BenchmarkHotPath entry (Health off)
// holds the no-feature path to its recorded allocation count, so the
// counter plumbing in the switches and HCAs cannot tax runs that never
// enable the PerfMgr.
func BenchmarkHealthSweep(b *testing.B) {
	cfg := hotPathConfig(false)
	cfg.Health = HealthParams{
		SweepPeriod:   40 * Microsecond,
		TrapThreshold: 6,
		Damping:       true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.DeliveredLegit == 0 {
			b.Fatal("hot path delivered nothing")
		}
		if res.HealthSweepMADs == 0 {
			b.Fatal("PerfMgr never swept — benchmark measures nothing")
		}
	}
}
