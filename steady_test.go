package ibasec

import (
	"crypto/aes"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/sm"
)

// TestSteadyStateAllocs holds each control plane to DESIGN §8's rule that
// after a plane's start nothing periodic allocates: a run of 2D may
// allocate no more than the same run of D (same seed, through the public
// API) plus a small fixed slack for free lists, slabs and rings growing
// to a later peak. Set-up — Build, each plane's start, the free list's
// first growth — is the same in both runs and cancels, which is what
// keeps the bound independent of the Go version's map layout. Each row
// checks that its mechanism ran in both runs, so a plane that silently
// stops cannot pass by allocating nothing.
func TestSteadyStateAllocs(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	const (
		d     = 1 * Millisecond
		slack = 24 // allocations: free-list, slab and ring growth to a later peak
	)
	// An AES key schedule's allocations differ between Go releases.
	aesAllocs := testing.AllocsPerRun(10, func() {
		if _, err := aes.NewCipher(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
	})
	cases := []struct {
		name   string
		enable func(*Config)
		// engaged reports how many periods of the row's mechanism ran;
		// the row fails unless the 2D run ran more than the D run.
		engaged func(cl *Cluster, res *Results) uint64
		// perPeriod is what each further period may add, beyond slack.
		perPeriod float64
		// extra raises the row's slack (see all-planes).
		extra float64
	}{
		{
			name:   "resweep",
			enable: func(cfg *Config) { cfg.ResweepPeriod = 100 * Microsecond },
			engaged: func(cl *Cluster, _ *Results) uint64 {
				return cl.Resweeper.SweepLatency.N() // sweeps probed to the end
			},
		},
		{
			name: "health",
			enable: func(cfg *Config) {
				cfg.Health = HealthParams{SweepPeriod: 40 * Microsecond, TrapThreshold: 6, Damping: true}
			},
			engaged: func(_ *Cluster, res *Results) uint64 { return res.HealthSweepMADs },
		},
		{
			name: "drift-audit",
			enable: func(cfg *Config) {
				cfg.Enforcement = SIF
				cfg.Policy = PolicyParams{Enabled: true, AuditPeriod: 100 * Microsecond, Repair: true}
			},
			engaged: func(_ *Cluster, res *Results) uint64 { return res.AuditMADs },
		},
		{
			name:   "ha",
			enable: func(cfg *Config) { cfg.HA = HAParams{Standbys: 2, Heartbeat: 50 * Microsecond} },
			engaged: func(cl *Cluster, _ *Results) uint64 {
				return cl.HA.Counters.Value(sm.HAHeartbeatsSent)
			},
		},
		{
			// Split-brain detection: the sitting master's census of the
			// fabric, once a lease.
			name:   "ha-census",
			enable: func(cfg *Config) { cfg.HA = HAParams{Standbys: 2, Heartbeat: 50 * Microsecond, SplitBrain: true} },
			engaged: func(cl *Cluster, _ *Results) uint64 {
				return cl.HA.Counters.Value(sm.HACensusRounds)
			},
		},
		{
			// A key epoch still allocates its new key's two AES key
			// schedules (the UMAC KDF's and pad's) and, until the MAC key
			// cache is full, the key's expanded state: one object.
			name: "rekey",
			enable: func(cfg *Config) {
				cfg.Auth = AuthConfig{Enabled: true, FuncID: AuthUMAC32, Level: PartitionLevel}
				cfg.Rekey = RekeyParams{Period: 100 * Microsecond, Grace: 30 * Microsecond, DistributionDelay: 2 * Microsecond}
			},
			engaged: func(cl *Cluster, _ *Results) uint64 {
				return cl.Rotator.Counters.Value(sm.RotEpochRollovers)
			},
			perPeriod: 1 + 2*aesAllocs,
		},
		{
			// Bursts of a duty-cycled attacker, each arming SIF at the
			// attacker's switch through a trap and the auto-disable timer
			// disarming it.
			name: "attacker",
			enable: func(cfg *Config) {
				cfg.Enforcement = SIF
				cfg.SM.AutoDisablePeriod = 40 * Microsecond
				cfg.Attackers = 1
				cfg.AttackDuty = 0.25
				cfg.AttackCycle = 200 * Microsecond
				cfg.AttackClass = ClassBestEffort
			},
			engaged: func(_ *Cluster, res *Results) uint64 { return res.FilterActivations },
		},
		{
			// Every plane at once, bench's mgmt-planes shape. The composed
			// planes' discoverers share one HCA and swallow each other's
			// SMP responses (ROADMAP item 2), so the resweeper reroutes a
			// fault-free fabric, and a reroute's configure pass allocates
			// its LID and route maps and one callback per Set; nothing
			// bounds how often that happens in a longer run. The 2D run
			// also holds the first key epoch (period 2 ms). So this row
			// keeps a documented ceiling of 64 allocations over D instead
			// of the per-plane slack alone; under Go 1.24 2D reads 14
			// more than D (one reroute in each run, one epoch in 2D).
			name: "all-planes",
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
			engaged: func(_ *Cluster, res *Results) uint64 { return res.HealthSweepMADs + res.AuditMADs },
			extra:   64 - slack,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			var periods [2]uint64
			for i, dur := range []Time{d, 2 * d} {
				cfg := DefaultConfig()
				cfg.MeshW, cfg.MeshH = 2, 2
				cfg.NumPartitions = 1
				cfg.Duration = dur
				cfg.Warmup = 50 * Microsecond
				cfg.RealtimeLoad = 0
				cfg.BestEffortLoad = 0.3
				tc.enable(&cfg)
				allocs[i] = testing.AllocsPerRun(3, func() {
					cl, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					res := cl.Simulate()
					if res.DeliveredLegit == 0 {
						t.Fatal("the run delivered nothing")
					}
					periods[i] = tc.engaged(cl, res)
				})
			}
			if periods[1] <= periods[0] || periods[0] == 0 {
				t.Fatalf("the mechanism ran %d periods in D and %d in 2D — the bound bounds nothing", periods[0], periods[1])
			}
			ceiling := allocs[0] + slack + tc.extra + tc.perPeriod*float64(periods[1]-periods[0])
			t.Logf("D: %.0f allocations over %d periods; 2D: %.0f over %d (ceiling %.0f)", allocs[0], periods[0], allocs[1], periods[1], ceiling)
			if allocs[1] > ceiling {
				t.Fatalf("2D allocated %.0f times, D %.0f: %.0f more, past the %d slack and %.0f per period", allocs[1], allocs[0], allocs[1]-allocs[0], slack, tc.perPeriod)
			}
		})
	}
}
