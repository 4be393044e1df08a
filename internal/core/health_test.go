package core

import (
	"slices"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// TestHealthQuarantinesFlakyLink is the core-level smoke for the
// PerfMgr: a persistently degraded inter-switch link must be fenced
// during the run, and fencing must actually reduce delivered loss —
// packets stop crossing the corrupting hop once routes avoid it.
func TestHealthQuarantinesFlakyLink(t *testing.T) {
	target := healthTargetLink()
	plan := func(cfg Config) *faults.Plan {
		return &faults.Plan{
			Seed:    cfg.Seed,
			LinkBER: []faults.LinkBER{{Link: target, Rate: 1e-4, From: cfg.Warmup, Until: cfg.Duration}},
		}
	}

	run := func(health bool) (*Cluster, *Results) {
		cfg := quickCfg()
		cfg.RealtimeLoad = 0
		cfg.BestEffortLoad = 0.3
		if health {
			cfg.Health = HealthParams{
				SweepPeriod:     40 * sim.Microsecond,
				QuarantineScore: 1,
				TrapThreshold:   6,
				Damping:         true,
			}
		}
		cfg.FaultPlan = plan(cfg)
		cl, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Simulate()
		return cl, res
	}

	with, withRes := run(true)
	if withRes.Quarantines == 0 {
		t.Fatal("degraded link was never quarantined")
	}
	without, withoutRes := run(false)
	if withoutRes.Quarantines != 0 {
		t.Fatal("quarantines counted with Health disabled")
	}
	if lw, lo := crcLoss(with), crcLoss(without); lw >= lo {
		t.Fatalf("quarantine did not cut CRC loss: with=%d without=%d", lw, lo)
	}
}

// TestHealthSurvivesFailover mirrors TestCongestionSurvivesFailover
// for the health plane: quarantine state rides the VL15 HA sync, so a
// promoted standby's PerfMgr must still fence the flaky link instead
// of re-admitting it blind after the master dies.
func TestHealthSurvivesFailover(t *testing.T) {
	cfg := quickCfg()
	cfg.RealtimeLoad = 0
	cfg.BestEffortLoad = 0.3
	cfg.Health = HealthParams{
		SweepPeriod:     40 * sim.Microsecond,
		QuarantineScore: 1,
		TrapThreshold:   6,
		Damping:         true,
	}
	cfg.HA = HAParams{Standbys: 1, Heartbeat: 50 * sim.Microsecond}
	target := healthTargetLink()
	cfg.FaultPlan = &faults.Plan{
		Seed:    cfg.Seed,
		LinkBER: []faults.LinkBER{{Link: target, Rate: 1e-4, From: cfg.Warmup, Until: cfg.Duration}},
		SMKills: []faults.SMKill{{At: cfg.Duration / 2}},
	}

	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sawQuarantine bool
	cl.OnHealth = func(ev sm.HealthEvent) {
		if ev.Quarantined && ev.Link == target {
			sawQuarantine = true
		}
	}
	cl.Simulate()

	if !sawQuarantine {
		t.Fatal("degraded link was never quarantined before the failover")
	}
	if cl.PerfMgr == nil {
		t.Fatal("no PerfMgr survived the takeover")
	}
	// The post-takeover PerfMgr must still fence both halves of the
	// target link: it adopted the health blob rather than starting from
	// a clean slate.
	guid := cl.Mesh.Switches[target.Switch].GUID()
	edges := cl.PerfMgr.QuarantinedEdges()
	if !slices.Contains(edges, topology.EdgeHalf{GUID: guid, Port: target.Port}) {
		t.Fatalf("promoted PerfMgr does not fence the flaky link: %v", edges)
	}
}

// TestHealthPointAllocBudget holds one health-experiment point — the
// damped arm under the BER ramp, as `ibsim -quick health` runs it — to
// an allocation ceiling. The point quarantines the target link, so the
// PerfMgr checks that each fence keeps the mesh connected and reroutes
// around it: the route computation is inside what this counts. While
// the check built all-pairs route maps the point allocated 4747 times,
// and 746 while each reroute built a route map per switch; the ceiling
// is the count measured under Go 1.24 plus 25%.
func TestHealthPointAllocBudget(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	const measured = 328
	base := quickCfg()
	p := healthPoint{Mode: enforce.SIF, Attack: "ramp", Arm: "damped", BER: 1e-4}
	allocs := testing.AllocsPerRun(2, func() {
		row, err := runHealthPoint(base, p)
		if err != nil {
			t.Fatal(err)
		}
		if row.Quarantines == 0 || row.RerouteMADs == 0 {
			t.Fatalf("the point never quarantined and rerouted — the budget bounds nothing: %+v", row)
		}
	})
	ceiling := measured * 1.25
	if allocs > ceiling {
		t.Fatalf("a health point allocated %.0f times, ceiling %.0f (%d measured + 25%%)", allocs, ceiling, measured)
	}
	t.Logf("%.0f allocations per point, ceiling %.0f", allocs, ceiling)
}
