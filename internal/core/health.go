package core

import (
	"context"
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

// HealthRow is one point of the health-plane experiment: a single
// gray-failing link under a stepped BER ramp or an adversarial
// oscillating-BER attack, with the PerfMgr off (the reactive resweep
// baseline), on without flap damping, or on with damping.
type HealthRow struct {
	Mode   enforce.Mode `csv:"mode"`
	Attack string       `csv:"attack"` // "ramp" (progressive gray failure) or "osc" (adversarial flapping)
	Arm    string       `csv:"arm"`    // "off", "undamped", "damped"
	BER    float64      `csv:"ber,%g"`

	// Datagram background traffic.
	Sent          uint64  `csv:"sent"`
	Delivered     uint64  `csv:"delivered"`
	DeliveredFrac float64 `csv:"delivered_frac"`

	// CRC-rejected packets — the delivered-loss the bad link inflicts —
	// split at the first quarantine of the target link: LostBeforeQ
	// accrued while traffic still crossed it, LostAfterQ after the
	// health plane had fenced it (the proactive win; with the plane off
	// everything lands in LostBeforeQ).
	CRCRejected uint64 `csv:"crc_rejected"`
	LostBeforeQ uint64 `csv:"lost_before_q"`
	LostAfterQ  uint64 `csv:"lost_after_q"`

	// DetectUS is the BER onset → first target-link quarantine latency;
	// zero when the link was never quarantined.
	DetectUS float64 `csv:"detect_us"`

	// Quarantine churn and its in-band cost.
	Quarantines uint64 `csv:"quarantines"`
	Readmits    uint64 `csv:"readmits"`
	Refused     uint64 `csv:"refused"`
	// FalseQuarantines counts quarantines of links other than the
	// degraded target — healthy links the scorer wrongly fenced.
	FalseQuarantines uint64 `csv:"false_quarantines"`
	// Flaps is the target link's final flap count: how many times the
	// attacker managed to force it in and out of service.
	Flaps       int    `csv:"flaps"`
	SweepMADs   uint64 `csv:"sweep_mads"`
	TrapMADs    uint64 `csv:"trap_mads"`
	RerouteMADs uint64 `csv:"reroute_mads"`
}

// HealthSweep runs the flaky-link experiment: for each enforcement
// design, attack shape and health-plane arm it degrades one central
// inter-switch link and measures detection latency, loss before/after
// quarantine, false positives, route churn and MAD overhead.
func HealthSweep(ctx context.Context, pool *runner.Pool, bers []float64, base Config) ([]HealthRow, error) {
	var points []healthPoint
	for _, mode := range []enforce.Mode{enforce.DPT, enforce.IF, enforce.SIF} {
		for _, attack := range []string{"ramp", "osc"} {
			for _, arm := range []string{"off", "undamped", "damped"} {
				for _, ber := range bers {
					points = append(points, healthPoint{Mode: mode, Attack: attack, Arm: arm, BER: ber})
				}
			}
		}
	}
	return sweep(ctx, pool, "health", points, func(p healthPoint) (HealthRow, error) { return runHealthPoint(base, p) })
}

// healthPoint is one cell of the health sweep.
type healthPoint struct {
	Mode        enforce.Mode
	Attack, Arm string
	BER         float64
}

// healthTargetLink is the degraded link: the East link of the switch at
// mesh coordinates (1,1) — central, so plenty of background traffic
// crosses it, and canonical (East/South) so it is exactly the identity
// the PerfMgr scores. The mesh must be at least 3 wide and 2 tall for
// an alternate route around it to exist.
func healthTargetLink() topology.LinkID {
	return topology.LinkID{Switch: 5, Port: topology.PortEast}
}

// runHealthPoint runs one cell of the sweep.
func runHealthPoint(base Config, p healthPoint) (HealthRow, error) {
	// The measurement is loss inflicted by the bad link, not congestion;
	// the periodic heal re-sweep is the reactive baseline every arm is
	// compared against, which only notices the link once its probes die.
	// Quarantine routes, like healed ones, are shortest-path.
	cfg := healingCfg(base, p.Mode)

	switch p.Arm {
	case "off":
		// Reactive baseline: no health plane at all.
	case "undamped", "damped":
		cfg.Health = HealthParams{
			SweepPeriod: 40 * sim.Microsecond,
			// The target link carries only a few background packets per
			// 40 µs sweep, so a sustained error-rate of one per sweep
			// already means a large fraction of its traffic is dying.
			QuarantineScore: 1.0,
			TrapThreshold:   6,
			Damping:         p.Arm == "damped",
		}
	default:
		return HealthRow{}, fmt.Errorf("core: unknown health arm %q", p.Arm)
	}

	// The attack window: BER starts at warmup and ends at 3/4 of the
	// run, leaving a clean tail for re-admission and drain.
	target := healthTargetLink()
	from, until := cfg.Warmup, cfg.Duration*3/4
	plan := &faults.Plan{Seed: cfg.Seed}
	switch p.Attack {
	case "ramp":
		// Progressive gray failure: the link's BER climbs in three
		// steps (ber/4, ber, 4·ber) — the proactive plane should fence
		// it mid-ramp, before the link degrades to useless.
		step := (until - from) / 3
		plan.LinkBER = []faults.LinkBER{
			{Link: target, Rate: p.BER / 4, From: from, Until: from + step},
			{Link: target, Rate: p.BER, From: from + step, Until: from + 2*step},
			{Link: target, Rate: p.BER * 4, From: from + 2*step, Until: until},
		}
	case "osc":
		// Adversarial flapping: full-rate BER toggled on and off every
		// half period, shaped to bounce the link in and out of
		// quarantine — the route-churn attack flap damping bounds.
		plan.LinkBER = faults.OscillatingBER(target, p.BER*4, 240*sim.Microsecond, from, until)
	default:
		return HealthRow{}, fmt.Errorf("core: unknown health attack %q", p.Attack)
	}
	cfg.FaultPlan = plan

	cl, err := Build(cfg)
	if err != nil {
		return HealthRow{}, err
	}

	row := HealthRow{Mode: p.Mode, Attack: p.Attack, Arm: p.Arm, BER: p.BER}
	// Snapshot the CRC-loss counters at the instant the target link is
	// first quarantined: everything after that is loss the fence did
	// not prevent.
	var lostAtQ uint64
	var firstQ sim.Time
	cl.OnHealth = func(ev sm.HealthEvent) {
		if ev.Link == target {
			if ev.Quarantined && firstQ == 0 {
				firstQ = ev.At
				lostAtQ = crcLoss(cl)
			}
			if ev.Flaps > row.Flaps {
				row.Flaps = ev.Flaps
			}
		} else if ev.Quarantined {
			row.FalseQuarantines++
		}
	}
	res := cl.Simulate()

	row.Sent, row.Delivered = res.SentLegit, res.DeliveredUD
	if row.Sent > 0 {
		row.DeliveredFrac = float64(row.Delivered) / float64(row.Sent)
	}
	row.CRCRejected = crcLoss(cl)
	if firstQ > 0 {
		row.LostBeforeQ = lostAtQ
		row.LostAfterQ = row.CRCRejected - lostAtQ
		row.DetectUS = (firstQ - from).Microseconds()
	} else {
		row.LostBeforeQ = row.CRCRejected
	}
	row.Quarantines = res.Quarantines
	row.Readmits = res.Readmits
	row.Refused = res.QuarantineRefused
	row.SweepMADs = res.HealthSweepMADs
	row.TrapMADs = res.HealthTrapMADs
	row.RerouteMADs = res.HealthRerouteMADs
	return row, nil
}

// crcLoss sums the CRC-rejected packets across the fabric — the
// delivered-loss a degraded link inflicts on traffic crossing it.
func crcLoss(cl *Cluster) uint64 {
	var n uint64
	for _, sw := range cl.Mesh.Switches {
		n += sw.Counters.Value(fabric.SwVCRCDrops)
	}
	for _, h := range cl.Mesh.HCAs {
		n += h.Counters.Value(fabric.HCAVCRCDrops) + h.Counters.Value(fabric.HCAICRCDrops)
	}
	return n
}

// startPerfMgr builds and starts the performance manager beside master:
// the configured SM at bring-up, the promoted standby after a takeover,
// where it displaces the dead master's and adopts the quarantine state
// HA sync left on master, so degraded links stay fenced across the
// failover. At bring-up there is no such state yet.
func (cl *Cluster) startPerfMgr(master *sm.SubnetManager) {
	if cl.PerfMgr != nil {
		cl.PerfMgr.Stop()
	}
	pm := sm.NewPerfMgr(cl.Sim, cl.Mesh, cl.newDiscoverer(master.Node()), master, cl.Cfg.Health)
	pm.OnEvent = func(ev sm.HealthEvent) {
		if cl.OnHealth != nil {
			cl.OnHealth(ev)
		}
	}
	if blob := master.SyncState(sm.HealthMagic); len(blob) > 0 {
		if entries, err := sm.ParseHealthBlob(blob); err != nil {
			cl.rejectSyncState(master, sm.HealthMagic)
		} else {
			pm.Adopt(entries)
		}
	}
	if cl.Resweeper != nil {
		// Heal sweeps must not re-program routes over a link the health
		// plane fenced (the double-programming race): the resweeper
		// treats quarantined halves as dead.
		cl.Resweeper.Quarantined = pm.QuarantinedEdges
	}
	pm.Start()
	cl.PerfMgr = pm
	cl.perfMgrs = append(cl.perfMgrs, pm)
}

// collectHealth sums every performance manager's quarantine activity
// and in-band MAD cost into the results.
func (cl *Cluster) collectHealth() {
	for _, pm := range cl.perfMgrs {
		cl.res.Quarantines += pm.Counters.Value(sm.PMQuarantines)
		cl.res.Readmits += pm.Counters.Value(sm.PMReadmits)
		cl.res.QuarantineRefused += pm.Counters.Value(sm.PMQuarantineRefused)
		cl.res.HealthSweepMADs += pm.Counters.Value(sm.PMHealthSweepMADs)
		cl.res.HealthTrapMADs += pm.Counters.Value(sm.PMHealthTrapMADs) + pm.Counters.Value(sm.PMTrapRearmMADs)
		cl.res.HealthRerouteMADs += pm.Counters.Value(sm.PMRerouteMADs)
	}
}
