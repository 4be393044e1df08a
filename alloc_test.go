package ibasec

import (
	"context"
	"runtime"
	"testing"

	"ibasec/internal/core"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/runner"
	"ibasec/internal/topology"
)

// TestRunAllocBudget holds a whole run — cluster set-up plus 500 us of a
// 2x2 mesh at 60% best-effort load, through the public API — to an
// allocation ceiling, once plain and once with each per-packet feature
// that allocates engaged. The plain row is the no-feature budget: a
// plane that is off may not tax it. bench/ measures host time and
// allocations per hop on the paper's mesh; this is the same property as
// a tier-1 failure. A run sends about 350 packets and, with the SM
// planes on, several hundred MADs, none of which allocates in steady
// state (message blocks and their images are recycled; DESIGN §8) — what
// a row counts is set-up (sized once from the fabric), the slabs the
// message free list and the lanes carve from as they grow to the run's
// peak, and each plane's start; after it nothing periodic
// allocates (TestSteadyStateAllocs holds that per plane). So one
// more allocation per packet or per MAD anywhere on the path exceeds
// the headroom of every row, and sm.TestSMPTransitAllocs holds the SMP
// round trip to its exact count.
//
// The fault and recovery rows (faults, apm, health-quarantine) break the
// fabric: bit strikes, link kills, RC retransmissions and quarantine
// reroutes. A struck packet and an RC retransmit copy come from pools too
// (DESIGN §8), so those rows also count set-up plus each pool's growth to
// its peak. While every strike and every RC send and resend allocated,
// the faults row counted 3980 allocations and 2.21 MB per run (1.31 MB
// since), apm 2933 and 1.76 MB (1.24 MB), and health-quarantine 202 and
// 178 kB (149 kB).
//
// The ceilings are the counts measured under Go 1.24 plus 25%: the
// run's set-up builds maps, whose allocation counts differ between Go
// 1.22 (CI) and 1.24. The all-planes row is held to its byte count plus
// 10% as well, a narrower margin because it must catch its image reuse
// slipping back: it allocated 153 kB while a block that had carried a
// MAD was handed to a full-MTU message, which then cut a new image,
// 136 kB once the free list kept full-size blocks apart, and 117 kB once
// only the congestion experiment kept a best-effort tail histogram
// (16.5 kB). (The sweep rows
// run their points on a runner pool, whose bytes the race detector
// moves by more than that margin.)
func TestRunAllocBudget(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	serial := runner.New(runner.Options{Workers: 1})
	cases := []struct {
		name     string
		measured float64                 // allocations per run under Go 1.24
		bytes    float64                 // bytes allocated per run under Go 1.24; 0: not held
		enable   func(*Config)           // nil: every feature off
		engaged  func(res *Results) bool // nil: delivering is enough
		// run, when set, replaces Run(cfg): one or more experiment
		// points on the row's configuration, reporting whether the
		// mechanism the row is about engaged in every one.
		run func(cfg Config) (engaged bool, err error)
	}{
		{name: "plain", measured: 58},
		{
			// UMAC-32 tags in the ICRC field, partition-level keys.
			name: "auth", measured: 87,
			enable: func(cfg *Config) {
				cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
			},
			engaged: func(res *Results) bool { return res.AuthOK > 0 && res.AuthFail == 0 },
		},
		{
			// The Congestion Control Annex under a line-rate incast flood:
			// FECN marking, CNP reflection and CCT throttling all run.
			name: "congestion", measured: 89,
			enable: func(cfg *Config) {
				cfg.Congestion = DefaultCCParams()
				cfg.Attackers = 1
				cfg.AttackClass = ClassBestEffort
				cfg.AttackIncast = true
				cfg.AttackRate = 1.0
				cfg.AttackCycle = cfg.Duration
			},
			engaged: func(res *Results) bool { return res.FECNMarked > 0 && res.CCTThrottled > 0 },
		},
		{
			// The performance manager at a short sweep period: PortCounters
			// Get MADs over VL15 on every watched link, scoring, trap arming.
			name: "health", measured: 87,
			enable: func(cfg *Config) {
				cfg.Health = HealthParams{SweepPeriod: 40 * Microsecond, TrapThreshold: 6, Damping: true}
			},
			engaged: func(res *Results) bool { return res.HealthSweepMADs > 0 },
		},
		{
			// Every SM plane on at once over light authenticated traffic —
			// bench's mgmt-planes shape: the control plane's budget. No
			// plane's period allocates (DESIGN §8), so this is set-up —
			// Build and each plane's start — plus the free list's growth
			// and the one reroute the composed planes make of a fault-free
			// fabric (ROADMAP item 2), whose configure pass builds its
			// maps and one callback per Set.
			name: "all-planes", measured: 287, bytes: 117484,
			enable: func(cfg *Config) {
				cfg.BestEffortLoad = 0.1
				cfg.Enforcement = SIF
				cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
				cfg.ResweepPeriod = 200 * Microsecond
				cfg.Health = HealthParams{SweepPeriod: 40 * Microsecond, TrapThreshold: 6, Damping: true}
				cfg.HA = HAParams{Standbys: 2, Heartbeat: 50 * Microsecond}
				cfg.Policy = PolicyParams{Enabled: true, AuditPeriod: 100 * Microsecond, Repair: true}
				cfg.Rekey = RekeyParams{Period: 2 * Millisecond, Grace: 600 * Microsecond, DistributionDelay: 2 * Microsecond}
				cfg.Congestion = DefaultCCParams()
			},
			engaged: func(res *Results) bool { return res.HealthSweepMADs > 0 && res.AuditMADs > 0 },
		},
		{
			// One `ibsim faults` cell per enforcement design: a BER 1e-5
			// burst and two link kills under the healing re-sweep, with RC
			// probe flows riding them out on retransmission. Two kills
			// disconnect every 2x2 mesh, so the row runs on 3x3.
			name: "faults", measured: 1558,
			run: func(cfg Config) (bool, error) {
				cfg.MeshW, cfg.MeshH = 3, 3
				rows, err := core.FaultsSweep(context.Background(), serial, []float64{1e-5}, []int{2}, cfg)
				engaged := len(rows) > 0
				for _, r := range rows {
					engaged = engaged && r.CRCRejected > 0 && r.RCDelivered > 0
				}
				return engaged, err
			},
		},
		{
			// One `ibsim apm` cell per recovery arm: BER 1e-5 and one kill
			// of each probe flow's primary path, recovered by timeout,
			// NAK or path migration — every arm retransmits.
			name: "apm", measured: 1454,
			run: func(cfg Config) (bool, error) {
				rows, err := core.APMSweep(context.Background(), serial, []float64{1e-5}, []int{1}, cfg)
				engaged := len(rows) > 0
				for _, r := range rows {
					engaged = engaged && r.Retrans > 0 && r.RCDelivered > 0
				}
				return engaged, err
			},
		},
		{
			// The PerfMgr against one gray link (BER 1e-4 from warm-up to
			// three quarters of the run): it scores the link's symbol
			// errors, quarantines it and reroutes around it.
			name: "health-quarantine", measured: 122,
			enable: func(cfg *Config) {
				cfg.Health = HealthParams{SweepPeriod: 40 * Microsecond, QuarantineScore: 1, TrapThreshold: 6, Damping: true}
				cfg.FaultPlan = &faults.Plan{Seed: cfg.Seed, LinkBER: []faults.LinkBER{{
					Link: topology.LinkID{Switch: 0, Port: topology.PortEast},
					Rate: 1e-4, From: cfg.Warmup, Until: cfg.Duration * 3 / 4,
				}}}
			},
			engaged: func(res *Results) bool { return res.Quarantines > 0 && res.HealthRerouteMADs > 0 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MeshW, cfg.MeshH = 2, 2
			cfg.NumPartitions = 1
			cfg.Duration = 500 * Microsecond
			cfg.Warmup = 50 * Microsecond
			cfg.RealtimeLoad = 0
			cfg.BestEffortLoad = 0.6
			if tc.enable != nil {
				tc.enable(&cfg)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if tc.run != nil {
					engaged, err := tc.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !engaged {
						t.Fatal("the mechanism never engaged in some point — the budget bounds nothing")
					}
					return
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.DeliveredLegit == 0 {
					t.Fatal("the run delivered nothing")
				}
				if tc.engaged != nil && !tc.engaged(res) {
					t.Fatalf("the feature never engaged — the budget bounds nothing: %+v", res)
				}
			})
			runtime.ReadMemStats(&after)
			// AllocsPerRun makes one warm-up call before its runs, and a run
			// builds everything afresh, so every call allocates alike.
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
			ceiling := tc.measured * 1.25
			if allocs > ceiling {
				t.Fatalf("a run allocated %.0f times, ceiling %.0f (%.0f measured + 25%%)", allocs, ceiling, tc.measured)
			}
			if limit := tc.bytes * 1.1; tc.bytes > 0 && bytes > limit {
				t.Fatalf("a run allocated %.0f bytes, ceiling %.0f (%.0f measured + 10%%)", bytes, limit, tc.bytes)
			}
			t.Logf("%.0f allocations and %.0f bytes per run, ceiling %.0f allocations", allocs, bytes, ceiling)
		})
	}
}

// TestAllocsPerKind holds a run's start — Build plus a Simulate that is
// all warm-up: 10 µs, then 10 µs of traffic — to one allocation per kind
// of object, not one per node or switch (DESIGN §8, "A run's fixed
// cost"). It measures the run at 4×4, 8×8 and 16×16 in three shapes,
// bench's plain, partition-level-auth and all-planes workloads, and
// bounds the allocations each added end port costs, from 4×4 to 8×8 and
// from 8×8 to 16×16. Before sources, senders, collectors, endpoints and
// agents came from per-fabric slabs an added end port cost 18.8, 47.6
// and 44.9 allocations; the bounds are 1, a quarter of 47.6 and half of
// 44.9.
func TestAllocsPerKind(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	cases := []struct {
		name    string
		perPort float64 // allocations per added end port, at most
		enable  func(*Config)
	}{
		{name: "plain", perPort: 1, enable: func(cfg *Config) {
			cfg.BestEffortLoad = 0.3
			cfg.MsgSize = 64
		}},
		{name: "partition-auth", perPort: 47.6 / 4, enable: func(cfg *Config) {
			cfg.Enforcement = SIF
			cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
			cfg.RealtimeLoad = 0.3
			cfg.BestEffortLoad = 0.3
			cfg.Attackers = 4
			cfg.AttackDuty = 0.5
			cfg.AttackCycle = Millisecond
			cfg.AttackClass = ClassBestEffort
		}},
		{name: "all-planes", perPort: 44.9 / 2, enable: func(cfg *Config) {
			cfg.BestEffortLoad = 0.1
			cfg.Enforcement = SIF
			cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
			cfg.ResweepPeriod = 200 * Microsecond
			cfg.Health = HealthParams{SweepPeriod: 40 * Microsecond, TrapThreshold: 6, Damping: true}
			cfg.HA = HAParams{Standbys: 2, Heartbeat: 50 * Microsecond}
			cfg.Policy = PolicyParams{Enabled: true, AuditPeriod: 100 * Microsecond, Repair: true}
			cfg.Rekey = RekeyParams{Period: 2 * Millisecond, Grace: 600 * Microsecond, DistributionDelay: 2 * Microsecond}
			cfg.Congestion = DefaultCCParams()
		}},
	}
	sizes := []int{4, 8, 16}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			allocs := make([]float64, len(sizes))
			for i, k := range sizes {
				cfg := DefaultConfig()
				cfg.MeshW, cfg.MeshH = k, k
				cfg.NumPartitions = 1
				cfg.Warmup = 10 * Microsecond
				cfg.Duration = 20 * Microsecond
				tc.enable(&cfg)
				allocs[i] = testing.AllocsPerRun(3, func() {
					cl, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res := cl.Simulate(); res.SentLegit == 0 {
						t.Fatal("the run sent nothing")
					}
				})
			}
			for i := 1; i < len(sizes); i++ {
				added := sizes[i]*sizes[i] - sizes[i-1]*sizes[i-1]
				if per := (allocs[i] - allocs[i-1]) / float64(added); per > tc.perPort {
					t.Errorf("%dx%d to %dx%d: %.2f allocations per added end port, at most %.2f",
						sizes[i-1], sizes[i-1], sizes[i], sizes[i], per, tc.perPort)
				}
			}
			t.Logf("allocations %.0f / %.0f / %.0f at 4x4 / 8x8 / 16x16", allocs[0], allocs[1], allocs[2])
		})
	}
}
