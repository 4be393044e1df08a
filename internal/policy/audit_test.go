package policy

import (
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

const testMKey = keys.MKey(0x5EC0DE0FDEADBEEF)

// auditRig is a programmed 2x2 subnet with in-band audit agents and a
// running auditor.
type auditRig struct {
	s       *sim.Simulator
	mesh    *topology.Mesh
	filter  *enforce.Filter
	intent  *Intent
	auditor *Auditor
}

func newAuditRig(t *testing.T, doc *Document, cfg AuditConfig) *auditRig {
	t.Helper()
	s := sim.New()
	params := fabric.DefaultParams()
	mesh := topology.NewMesh(s, params, 2, 2)
	filter := enforce.NewFilter(doc.Mode, params)
	mesh.SetFilterAll(filter)
	smCfg := sm.DefaultConfig()
	smCfg.AutoDisablePeriod = 0 // the intent wants pins to persist
	manager := sm.New(s, mesh, filter, smCfg)

	intent, err := Program(doc, manager, mesh, filter, testMKey)
	if err != nil {
		t.Fatal(err)
	}
	for i, agent := range sm.AttachSwitchAgents(mesh, testMKey) {
		_ = i
		agent.Enforce = filter
	}
	disc := sm.NewDiscoverer(s, mesh.HCA(0), testMKey, 25*sim.Microsecond)
	disc.MaxRetries = 2
	disc.SetTimeoutMult = 10
	auditor := NewAuditor(s, disc, intent, sm.SwitchPaths(mesh, 0), cfg)
	auditor.Start()
	return &auditRig{s: s, mesh: mesh, filter: filter, intent: intent, auditor: auditor}
}

// assertMatchesIntent fails unless every switch's observed state equals
// (valid) / covers (invalid, active) its intent.
func (r *auditRig) assertMatchesIntent(t *testing.T) {
	t.Helper()
	for i := range r.intent.Switches {
		si := &r.intent.Switches[i]
		snap := r.filter.Snapshot(r.mesh.Switches[si.Switch])
		wv, _ := si.Digests()
		if enforce.Digest16(snap.Valid) != wv {
			t.Errorf("switch %d valid table still diverges from intent", si.Switch)
		}
		if missing := diff(si.Invalid, snap.Invalid); len(missing) > 0 {
			t.Errorf("switch %d missing pinned invalid entries %#x", si.Switch, missing)
		}
		if si.Active && !snap.Active {
			t.Errorf("switch %d inactive where intent requires filtering", si.Switch)
		}
	}
}

func TestAuditorCleanFabricNoDrift(t *testing.T) {
	rig := newAuditRig(t, testDoc(), AuditConfig{Period: 50 * sim.Microsecond, Repair: true})
	rig.s.RunUntil(500 * sim.Microsecond)
	if n := len(rig.auditor.Events); n != 0 {
		t.Fatalf("clean fabric raised %d drift events: %+v", n, rig.auditor.Events[0])
	}
	sweeps := rig.auditor.Counters.Value(AuditSweeps)
	if sweeps < 8 {
		t.Fatalf("only %d sweeps in 500us at 50us period", sweeps)
	}
	// Digest agreement keeps a clean sweep at exactly one MAD per switch.
	if mads := rig.auditor.Counters.Value(AuditMADs); mads != sweeps*uint64(len(rig.mesh.Switches)) {
		t.Errorf("audit_mads = %d, want %d (1 per switch per sweep)",
			mads, sweeps*uint64(len(rig.mesh.Switches)))
	}
}

// TestAuditorSweepAllocFree holds a sweep of a fabric that has not
// drifted — one AuditState probe per switch, each answered and matched
// against the intent's digests — to no allocation once warm.
func TestAuditorSweepAllocFree(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	rig := newAuditRig(t, testDoc(), AuditConfig{}) // no period: each sweep is driven here
	sweep := func() {
		rig.auditor.Sweep()
		rig.s.Run()
	}
	if n := testing.AllocsPerRun(100, sweep); n != 0 {
		t.Errorf("a no-drift sweep allocated %.0f times, want 0", n)
	}
	switches := uint64(len(rig.mesh.Switches))
	if got := rig.auditor.Counters.Value(AuditMADs); got != 101*switches || len(rig.auditor.Events) != 0 {
		t.Errorf("%d probes and %d drift events over 101 sweeps, want %d and none", got, len(rig.auditor.Events), 101*switches)
	}
}

func TestAuditorRepairsValidTableDrift(t *testing.T) {
	rig := newAuditRig(t, testDoc(), AuditConfig{Period: 50 * sim.Microsecond, Repair: true})
	corruptAt := 120 * sim.Microsecond
	// An attacker with management access slips an extra partition into
	// switch 3's table and deletes a legitimate one from switch 2's.
	rig.s.ScheduleAt(corruptAt, func() {
		rig.filter.AddValid(rig.mesh.Switches[3], packet.PKey(0x8123))
		rig.filter.RemoveValid(rig.mesh.Switches[2], packet.PKey(0x8001))
	})
	rig.s.RunUntil(500 * sim.Microsecond)

	if len(rig.auditor.Events) != 2 {
		t.Fatalf("got %d drift events, want 2 (one per corrupted switch): %+v",
			len(rig.auditor.Events), rig.auditor.Events)
	}
	for _, ev := range rig.auditor.Events {
		if ev.DetectedAt < corruptAt || ev.DetectedAt > corruptAt+100*sim.Microsecond {
			t.Errorf("switch %d detected at %v, outside one period of the corruption", ev.Switch, ev.DetectedAt)
		}
		if !ev.Repaired || ev.RepairedAt < ev.DetectedAt {
			t.Errorf("switch %d not repaired: %+v", ev.Switch, ev)
		}
		switch ev.Switch {
		case 3:
			if len(ev.ExtraValid) != 1 || ev.ExtraValid[0] != 0x8123 {
				t.Errorf("switch 3 attribution = %+v, want extra 0x8123", ev)
			}
		case 2:
			if len(ev.MissingValid) != 1 || ev.MissingValid[0] != 0x8001 {
				t.Errorf("switch 2 attribution = %+v, want missing 0x8001", ev)
			}
		default:
			t.Errorf("drift reported at untouched switch %d", ev.Switch)
		}
	}
	rig.assertMatchesIntent(t)
}

func TestAuditorDetectOnlyKeepsReporting(t *testing.T) {
	rig := newAuditRig(t, testDoc(), AuditConfig{Period: 50 * sim.Microsecond, Repair: false})
	rig.s.ScheduleAt(120*sim.Microsecond, func() {
		rig.filter.AddValid(rig.mesh.Switches[1], packet.PKey(0x8123))
	})
	rig.s.RunUntil(500 * sim.Microsecond)
	// Without repair the divergence persists and every sweep re-detects.
	if n := len(rig.auditor.Events); n < 3 {
		t.Fatalf("detect-only auditor raised %d events, want one per post-corruption sweep", n)
	}
	for _, ev := range rig.auditor.Events {
		if ev.Switch != 1 || ev.Repaired {
			t.Errorf("unexpected event %+v", ev)
		}
	}
}

func TestAuditorRepairsSIFDeactivation(t *testing.T) {
	doc := &Document{
		Version: 1,
		Mode:    enforce.SIF,
		Rules: []Rule{
			{Name: "compute", Base: 0x0001, Full: []PortRange{{0, 2}}},
			{Name: "storage", Base: 0x0002, Full: []PortRange{{1, 3}}},
		},
		Pinned: []uint16{0x0FFF},
	}
	rig := newAuditRig(t, doc, AuditConfig{Period: 50 * sim.Microsecond, Repair: true})
	sw := rig.mesh.Switches[2]
	rig.s.ScheduleAt(120*sim.Microsecond, func() {
		// The "stale switch" corruption: registrations gone, filter off.
		rig.filter.ClearInvalid(sw)
		rig.filter.SetActive(sw, false)
	})
	rig.s.RunUntil(500 * sim.Microsecond)

	if len(rig.auditor.Events) != 1 {
		t.Fatalf("got %d drift events, want 1: %+v", len(rig.auditor.Events), rig.auditor.Events)
	}
	ev := rig.auditor.Events[0]
	if ev.Switch != 2 || !ev.Inactive || !ev.Repaired {
		t.Fatalf("event = %+v, want inactive switch 2 repaired", ev)
	}
	if len(ev.MissingInvalid) != 1 || ev.MissingInvalid[0] != 0x0FFF {
		t.Fatalf("attribution = %+v, want missing pin 0x0FFF", ev)
	}
	if !rig.filter.Active(sw) {
		t.Error("repair did not re-activate SIF filtering")
	}
	rig.assertMatchesIntent(t)
}

func TestAuditorToleratesRuntimeSupersets(t *testing.T) {
	doc := &Document{
		Version: 1,
		Mode:    enforce.SIF,
		Rules: []Rule{
			{Name: "compute", Base: 0x0001, Full: []PortRange{{0, 3}}},
			{Name: "storage", Base: 0x0002, Full: []PortRange{{0, 3}}},
		},
		Pinned: []uint16{0x0FFF},
	}
	rig := newAuditRig(t, doc, AuditConfig{Period: 50 * sim.Microsecond, Repair: true})
	// The running SIF control loop registers an extra invalid key the
	// policy never declared — legitimate state, not drift.
	rig.s.ScheduleAt(120*sim.Microsecond, func() {
		rig.filter.RegisterInvalid(rig.mesh.Switches[1], packet.PKey(0x0ABC))
	})
	var madsAfterFirstVerify uint64
	rig.s.ScheduleAt(260*sim.Microsecond, func() {
		madsAfterFirstVerify = rig.auditor.Counters.Value(AuditMADs)
	})
	rig.s.RunUntil(500 * sim.Microsecond)

	if n := len(rig.auditor.Events); n != 0 {
		t.Fatalf("superset raised %d drift events: %+v", n, rig.auditor.Events[0])
	}
	// After the superset is verified once, its digest is cached: later
	// sweeps are back to one MAD per switch.
	finalMads := rig.auditor.Counters.Value(AuditMADs)
	sweepsLeft := uint64(5) // sweeps at 300..500us inclusive
	perSwitch := uint64(len(rig.mesh.Switches))
	if finalMads != madsAfterFirstVerify+sweepsLeft*perSwitch {
		t.Errorf("post-verify sweeps cost %d MADs, want %d (digest cache miss?)",
			finalMads-madsAfterFirstVerify, sweepsLeft*perSwitch)
	}
}
