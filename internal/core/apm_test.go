package core

import (
	"testing"
)

// TestAPMRideThrough is the apm experiment's acceptance property: under
// a mid-run primary-path link kill, connections with a registered
// alternate path ride the outage out with zero breaks and a recovery
// tail below the timeout-only configuration, while the unregistered
// configuration shows SIF enforcement drops on the migrated path.
func TestAPMRideThrough(t *testing.T) {
	base := quickCfg()

	timeout, err := runAPMPoint(base, apmPoint{Arm: ArmTimeout, Kills: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := runAPMPoint(base, apmPoint{Arm: ArmAPMRegistered, Kills: 1})
	if err != nil {
		t.Fatal(err)
	}
	unreg, err := runAPMPoint(base, apmPoint{Arm: ArmAPMUnregistered, Kills: 1})
	if err != nil {
		t.Fatal(err)
	}

	if reg.RCSent == 0 || reg.RCDelivered == 0 {
		t.Fatalf("registered arm moved no probe traffic: %+v", reg)
	}
	if reg.RCBroken != 0 {
		t.Errorf("registered alternate path broke %d connections, want 0", reg.RCBroken)
	}
	if reg.Migrations == 0 {
		t.Errorf("registered arm never migrated: %+v", reg)
	}
	if reg.AltDropped != 0 {
		t.Errorf("registered arm lost %d packets to SIF alt enforcement, want 0", reg.AltDropped)
	}
	if timeout.RCLatencyMaxUS <= reg.RCLatencyMaxUS {
		t.Errorf("recovery latency: timeout-only max %.1f us, APM-registered max %.1f us — migration should recover faster",
			timeout.RCLatencyMaxUS, reg.RCLatencyMaxUS)
	}
	if timeout.Migrations != 0 || timeout.NAKs != 0 {
		t.Errorf("timeout-only arm used NAK/APM machinery: %+v", timeout)
	}

	if unreg.AltDropped == 0 {
		t.Errorf("unregistered alternate path showed no enforcement drops: %+v", unreg)
	}
	if unreg.Migrations == 0 {
		t.Errorf("unregistered arm never migrated: %+v", unreg)
	}
}

// TestAPMPairsDisjoint checks the probe-pair selection invariant: both
// coordinates differ, so primary and alternate routes are link-disjoint.
func TestAPMPairsDisjoint(t *testing.T) {
	cfg := quickCfg()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := rcPairs(cl, maxAPMFlows, true)
	if len(pairs) == 0 {
		t.Fatal("no probe pairs selected")
	}
	w := cfg.MeshW
	for _, pr := range pairs {
		if pr.a%w == pr.b%w || pr.a/w == pr.b/w {
			t.Errorf("pair %d-%d shares a row or column", pr.a, pr.b)
		}
	}
}
