package main

import (
	"fmt"

	"ibasec"
)

// workload is one fixed traffic mix on the paper's Table 1 testbed (4x4
// mesh, 1 ms warm-up). All are closed systems: the only sources are the
// simulator's own Poisson/CBR generators, seeded from Config.Seed.
// Durations are sized so one repetition takes about 3 s of host time on a
// 2-vCPU box.
//
// All 16 nodes share one partition. The paper's four random groups make
// every node talk to three seed-chosen peers, so the mean path length —
// and with it hops per packet, allocations per hop and hops per second —
// moves by 5-10% from seed to seed; with one partition traffic is uniform
// over all pairs and the same quantities repeat within 0.1% (data-*) to a
// few percent (attacker placement still depends on the seed).
type workload struct {
	Name string
	Why  string
	// config returns a fresh Config (fresh fabric.Params) at the given
	// seed; scale divides Duration (-quick uses 10).
	config func(seed int64, scale int) ibasec.Config
	// engaged reports why the mechanism the workload exists to exercise
	// did not run, or nil.
	engaged func(res *ibasec.Results, cl *ibasec.Cluster) error
}

func baseConfig(seed int64, scale int, dur ibasec.Time) ibasec.Config {
	c := ibasec.DefaultConfig()
	c.Seed = seed
	c.Warmup = ibasec.Millisecond
	c.NumPartitions = 1
	c.Duration = dur / ibasec.Time(scale)
	if c.Duration <= c.Warmup {
		c.Duration = c.Warmup + 500*ibasec.Microsecond
	}
	return c
}

func umacPartitionAuth() ibasec.AuthConfig {
	return ibasec.AuthConfig{Enabled: true, FuncID: ibasec.AuthUMAC32, Level: ibasec.PartitionLevel}
}

var workloads = []workload{
	{
		Name: "data-1k",
		Why:  "paper MTU, no security: per-byte work (icrc seal, packet marshal) is ~80% of host time, per-event work little",
		config: func(seed int64, scale int) ibasec.Config {
			c := baseConfig(seed, scale, 20*ibasec.Millisecond)
			c.BestEffortLoad = 0.6
			c.MsgSize = 1024
			return c
		},
	},
	{
		Name: "data-64b",
		Why:  "smallest packets, no security: per-event work (sim queue, fabric forward/arbitrate/credit, counters, GC) dominates, icrc at its least",
		config: func(seed int64, scale int) ibasec.Config {
			c := baseConfig(seed, scale, 12*ibasec.Millisecond)
			c.BestEffortLoad = 0.3
			c.MsgSize = 64
			return c
		},
	},
	{
		Name: "secure-dos",
		Why:  "paper headline: SIF + UMAC-32 under a 4-attacker duty-cycled flood; only workload running enforce, mac, keys, traps and the switch drop path",
		config: func(seed int64, scale int) ibasec.Config {
			c := baseConfig(seed, scale, 20*ibasec.Millisecond)
			c.Enforcement = ibasec.SIF
			c.Auth = umacPartitionAuth()
			c.RealtimeLoad = 0.3
			c.BestEffortLoad = 0.3
			c.Attackers = 4
			c.AttackDuty = 0.5
			c.AttackCycle = ibasec.Millisecond
			c.AttackClass = ibasec.ClassBestEffort
			return c
		},
		engaged: func(res *ibasec.Results, _ *ibasec.Cluster) error {
			switch {
			case res.FilterDropped == 0:
				return fmt.Errorf("SIF dropped nothing")
			case res.TrapsSent == 0:
				return fmt.Errorf("no P_Key traps sent")
			case res.AuthOK == 0:
				return fmt.Errorf("no packet authenticated")
			case res.AuthFail != 0:
				return fmt.Errorf("%d authentication failures", res.AuthFail)
			}
			return nil
		},
	},
	{
		Name: "mgmt-planes",
		Why:  "every SM plane on over light traffic: control-plane bound (VL15 DR-SMPs resealed per switch, PerfMgr/auditor/HA/rekey timers); a plane refactor must show no change here",
		config: func(seed int64, scale int) ibasec.Config {
			c := baseConfig(seed, scale, 30*ibasec.Millisecond)
			c.BestEffortLoad = 0.1
			c.Enforcement = ibasec.SIF
			c.Auth = umacPartitionAuth()
			c.ResweepPeriod = 200 * ibasec.Microsecond
			c.Health = ibasec.HealthParams{SweepPeriod: 40 * ibasec.Microsecond, TrapThreshold: 6, Damping: true}
			c.HA = ibasec.HAParams{Standbys: 2, Heartbeat: 50 * ibasec.Microsecond}
			c.Policy = ibasec.PolicyParams{Enabled: true, AuditPeriod: 100 * ibasec.Microsecond, Repair: true}
			c.Rekey = ibasec.RekeyParams{
				Period:            2 * ibasec.Millisecond,
				Grace:             600 * ibasec.Microsecond,
				DistributionDelay: 2 * ibasec.Microsecond,
			}
			c.Congestion = ibasec.DefaultCCParams()
			return c
		},
		engaged: func(res *ibasec.Results, cl *ibasec.Cluster) error {
			switch {
			case res.HealthSweepMADs == 0:
				return fmt.Errorf("PerfMgr never swept")
			case res.AuditMADs == 0:
				return fmt.Errorf("drift auditor never probed")
			case res.AuthOK == 0:
				return fmt.Errorf("no packet authenticated")
			case res.AuthFail != 0:
				return fmt.Errorf("%d authentication failures", res.AuthFail)
			case cl.Rotator == nil || cl.Rotator.Counters.Get("epoch_rollovers") == 0:
				return fmt.Errorf("no key rollover")
			}
			return nil
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
