package core

import (
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/faults"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
)

// TestCongestionThrottlesAttacker is the experiment's acceptance anchor:
// at a full line-rate incast flood, turning the Congestion Control Annex
// on must visibly squeeze the attacker (FECN marks at switches, CNPs
// reflected by the victim, a non-zero CCT index at the attacker's HCA)
// and must strictly improve the victims' best-effort p99 latency over
// the CC-off arm of the same attack. The rate is pinned at 1.0 — at
// lower rates the congestion tree is shallow enough that the throttle's
// own injection delay can outweigh the queueing it removes, so only the
// line-rate point carries a strict-ordering guarantee.
func TestCongestionThrottlesAttacker(t *testing.T) {
	base := quickCfg()
	const rate = 1.0

	off, err := runCongestionPoint(base, congestionPoint{Mode: enforce.DPT, Rate: rate})
	if err != nil {
		t.Fatal(err)
	}
	on, err := runCongestionPoint(base, congestionPoint{Mode: enforce.DPT, Rate: rate, CC: true})
	if err != nil {
		t.Fatal(err)
	}

	// CC off must be inert: no marking, no notifications, no throttle.
	if off.FECNMarked != 0 || off.CNPs != 0 || off.Throttled != 0 || off.AttackerCCT != 0 {
		t.Fatalf("CC-off arm shows congestion-control activity: %+v", off)
	}

	// CC on must show the full marking -> notification -> throttle chain.
	if on.FECNMarked == 0 {
		t.Error("no FECN marks: switches never detected the congestion tree")
	}
	if on.CNPs == 0 {
		t.Error("no CNPs: victim never reflected congestion back to the source")
	}
	if on.Throttled == 0 {
		t.Error("no throttled injections: attacker HCA never applied its CCT delay")
	}
	if on.AttackerCCT == 0 {
		t.Error("attacker CCT index never rose: source was not squeezed")
	}
	if on.TreeSpan == 0 {
		t.Error("SM congestion log empty: tree span not observable from the control plane")
	}

	// The point of the annex: the victims' tail latency under attack must
	// be strictly better with CC on, and the congestion tree's upstream
	// credit-stall pressure must shrink.
	if on.BEp99US >= off.BEp99US {
		t.Errorf("CC on did not improve victim p99: on=%.2fus off=%.2fus", on.BEp99US, off.BEp99US)
	}
	if on.StallUS >= off.StallUS {
		t.Errorf("CC on did not shrink credit stalls: on=%.1fus off=%.1fus", on.StallUS, off.StallUS)
	}
}

// TestCongestionSurvivesFailover: the congestion-control configuration
// rides HA state sync, so when the master SM dies the promoted standby
// must reprogram thresholds and CCTs from its inherited blob — the annex
// must not silently disarm on failover.
func TestCongestionSurvivesFailover(t *testing.T) {
	cfg := quickCfg()
	cfg.RealtimeLoad = 0
	cfg.Congestion = DefaultCCParams()
	cfg.HA = HAParams{Standbys: 1, Heartbeat: 50 * sim.Microsecond}
	cfg.FaultPlan = &faults.Plan{
		Seed:    cfg.Seed,
		SMKills: []faults.SMKill{{At: cfg.Duration / 3}},
	}

	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Simulate()

	var promoted *sm.SubnetManager
	for _, sb := range cl.Standbys {
		if sb.Counters.Value(sm.SMCCProgramMADs) > 0 {
			promoted = sb
		}
	}
	if promoted == nil {
		t.Fatal("no standby reprogrammed congestion control after takeover")
	}
	got, err := sm.ParseCCBlob(promoted.SyncState(sm.CCMagic))
	if err != nil {
		t.Fatalf("promoted standby holds a bad congestion blob: %v", err)
	}
	if got != cfg.Congestion {
		t.Fatalf("promoted standby adopted %+v, want %+v", got, cfg.Congestion)
	}
}

// TestCongestionRecovers checks the drain side of the annex: after the
// attack burst ends, the attacker's congestion-control table must decay
// back to zero inside the run's recovery window (RecoverUS >= 0), so a
// past attack does not permanently tax the source.
func TestCongestionRecovers(t *testing.T) {
	row, err := runCongestionPoint(quickCfg(), congestionPoint{Mode: enforce.DPT, Rate: 0.5, CC: true})
	if err != nil {
		t.Fatal(err)
	}
	if row.AttackerCCT == 0 {
		t.Fatal("rate-0.5 flood never engaged the CCT; recovery unmeasurable")
	}
	if row.RecoverUS < 0 {
		t.Errorf("CCT never drained after the attack stopped: %+v", row)
	}
}
