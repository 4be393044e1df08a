package core

import (
	"context"
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/metrics"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// The apm experiment measures RC ride-through under a targeted mid-run
// link kill (plus an optional bit-error burst) for four recovery arms,
// all under SIF enforcement with alternate-path source-identity checking
// armed:
//
//	timeout   — stock go-back-N: fixed retry period, no NAKs, no APM.
//	nak       — responder NAKs + exponential retry backoff.
//	apm-reg   — nak plus Automatic Path Migration; the SM path-record
//	            query registers source identities on the alternate-path
//	            switches, so migrated traffic passes SIF.
//	apm-unreg — identical, but the SIF re-registration is disabled: the
//	            enforcement drop cliff the paper's source-identity
//	            discussion predicts.
//
// The kill severs the first primary-path hop of the probe flows, so
// recovery is in-band (NAK/APM) or waits for the SM re-sweep to reroute;
// the alternate Y-then-X route is untouched by construction.

// APMArm selects one recovery configuration of the apm experiment.
type APMArm int

// Recovery arms, in sweep order.
const (
	ArmTimeout APMArm = iota
	ArmNAK
	ArmAPMRegistered
	ArmAPMUnregistered
)

func (a APMArm) String() string {
	switch a {
	case ArmTimeout:
		return "timeout"
	case ArmNAK:
		return "nak"
	case ArmAPMRegistered:
		return "apm-reg"
	case ArmAPMUnregistered:
		return "apm-unreg"
	default:
		return fmt.Sprintf("APMArm(%d)", int(a))
	}
}

// enableNAK reports whether the arm turns on explicit NAKs and backoff.
func (a APMArm) enableNAK() bool { return a != ArmTimeout }

// enableAPM reports whether the arm arms alternate paths.
func (a APMArm) enableAPM() bool { return a == ArmAPMRegistered || a == ArmAPMUnregistered }

// APMRow is one (arm, BER, kills) point of the apm experiment.
type APMRow struct {
	Arm       APMArm  `csv:"arm"`
	BER       float64 `csv:"ber,%g"`
	LinkKills int     `csv:"kills"`

	// Ride-through: probe messages sent vs delivered, and connections
	// that broke outright.
	RCSent        uint64  `csv:"rc_sent"`
	RCDelivered   uint64  `csv:"rc_delivered"`
	DeliveredFrac float64 `csv:"delivered_frac"`
	RCBroken      uint64  `csv:"rc_broken"`

	// Recovery mechanics.
	NAKs         uint64 `csv:"naks"`       // explicit sequence-error NAKs sent by responders
	Migrations   uint64 `csv:"migrations"` // APM failovers onto the alternate path
	Rearms       uint64 `csv:"rearms"`     // returns to the healed primary
	Retrans      uint64 `csv:"retrans"`    // head retransmissions
	RetransBytes uint64 `csv:"retrans_bytes"`
	StormMax     uint64 `csv:"storm_max"`   // densest 100 µs retransmission window
	AltDropped   uint64 `csv:"alt_dropped"` // migrated packets SIF dropped for missing registrations

	// Recovery latency: the delivered probes' end-to-end tail. Max is
	// the longest ride-through any single message needed.
	RCLatencyP99US float64 `csv:"p99_us"`
	RCLatencyMaxUS float64 `csv:"max_us"`
}

// APMSweep runs the apm experiment: BER × primary-path link kills ×
// recovery arm, against RC probe flows.
func APMSweep(ctx context.Context, pool *runner.Pool, bers []float64, kills []int, base Config) ([]APMRow, error) {
	var points []apmPoint
	for _, arm := range []APMArm{ArmTimeout, ArmNAK, ArmAPMRegistered, ArmAPMUnregistered} {
		for _, ber := range bers {
			for _, k := range kills {
				points = append(points, apmPoint{Arm: arm, BER: ber, Kills: k})
			}
		}
	}
	return sweep(ctx, pool, "apm", points, func(p apmPoint) (APMRow, error) { return runAPMPoint(base, p) })
}

// apmPoint is one cell of the apm sweep.
type apmPoint struct {
	Arm   APMArm
	BER   float64
	Kills int
}

// maxAPMFlows bounds the probe pairs per run.
const maxAPMFlows = 4

// runAPMPoint runs one cell of the sweep.
func runAPMPoint(base Config, p apmPoint) (APMRow, error) {
	if p.Kills < 0 {
		return APMRow{}, fmt.Errorf("core: %d link kills", p.Kills)
	}
	cfg := healingCfg(base, enforce.SIF)

	// The fault plan targets the probe flows' primary paths, and the
	// probe pairs depend on the seed-derived partition grouping computed
	// inside Build — so assemble a scout cluster (never simulated) purely
	// to learn the pair set. Same config, same pairs.
	scout, err := Build(cfg)
	if err != nil {
		return APMRow{}, err
	}
	pairs := rcPairs(scout, maxAPMFlows, true)

	// One synchronized kill shortly after warmup, restored at 5/8 of the
	// run: every arm faces the same outage and the drain window still
	// absorbs the recovery tail.
	plan := &faults.Plan{Seed: cfg.Seed}
	killAt := cfg.Warmup + 100*sim.Microsecond
	killUntil := cfg.Duration * 5 / 8
	seen := make(map[topology.LinkID]bool)
	for _, pr := range pairs {
		if len(plan.Links) >= p.Kills {
			break
		}
		link, ok := faults.PrimaryHopLink(cfg.MeshW, pr.a, pr.b)
		if !ok || seen[link] {
			continue
		}
		seen[link] = true
		plan.Links = append(plan.Links, faults.LinkKill{Link: link, DownAt: killAt, UpAt: killUntil})
	}
	if p.BER != 0 { // a negative rate reaches the plan's validation
		plan.BER = append(plan.BER, faults.BERBurst{
			Rate: p.BER, From: cfg.Warmup, Until: cfg.Duration * 3 / 4,
		})
	}
	cfg.FaultPlan = plan

	cl, err := Build(cfg)
	if err != nil {
		return APMRow{}, err
	}
	mkey := cfg.SM.MKey
	// Alternate routes and the SIF alternate-path check are armed in
	// every arm, so the only difference between apm-reg and apm-unreg is
	// whether the path-record query re-registers source identities.
	if err := cl.SM.ProgramAlternatePaths(mkey); err != nil {
		return APMRow{}, err
	}
	cl.Filter.EnableAltPathEnforcement(topology.AltLIDBase)

	tcfg := transport.Config{
		Registry: mac.DefaultRegistry(),
		KeyLevel: transport.PartitionLevel,
		// A tight retry period with a generous budget: recovery cadence
		// is the experiment's subject, and the budget must outlast the
		// outage so the timeout-only arm measures latency, not breakage.
		RetryTimeout: 20 * sim.Microsecond,
		MaxRetries:   30,
		EnableNAK:    p.Arm.enableNAK(),
	}
	var altPath func(rcPair, *transport.QP) error
	if p.Arm.enableAPM() {
		altPath = func(pr rcPair, qp *transport.QP) error {
			rec, err := cl.SM.QueryPathRecord(mkey, pr.a, pr.b, p.Arm == ArmAPMRegistered)
			if err != nil {
				return err
			}
			qp.SetAlternatePath(rec.AltDLID, 2)
			return nil
		}
	}
	probes, lat, eps, err := armRCProbes(cl, pairs, tcfg, altPath)
	if err != nil {
		return APMRow{}, err
	}
	for _, ep := range eps {
		ep.Storm = metrics.NewStorm(100) // 100 µs windows
	}
	if p.Arm.enableAPM() {
		// Rearm migrated connections whenever a re-sweep reconfigures
		// the fabric: after a reroute (or a restoration) the primary
		// LIDs are reachable again.
		cl.OnHeal = func(ev sm.HealEvent) {
			if ev.LostEdges > 0 || ev.NewEdges > 0 {
				for _, ep := range eps {
					ep.RearmAll()
				}
			}
		}
	}
	cl.Simulate()

	row := APMRow{Arm: p.Arm, BER: p.BER, LinkKills: p.Kills}
	for _, pr := range probes {
		row.RCSent += pr.sent
		row.RCDelivered += pr.delivered
		if pr.qp.Broken() {
			row.RCBroken++
		}
	}
	if row.RCSent > 0 {
		row.DeliveredFrac = float64(row.RCDelivered) / float64(row.RCSent)
	}
	for _, ep := range eps {
		row.NAKs += ep.Counters.Value(transport.EpRCNAKsSent)
		row.Migrations += ep.Counters.Value(transport.EpRCMigrations)
		row.Rearms += ep.Counters.Value(transport.EpRCRearms)
		row.Retrans += ep.Counters.Value(transport.EpRCRetransmissions)
		row.RetransBytes += ep.Counters.Value(transport.EpRCRetransBytes)
		if ep.Storm != nil && ep.Storm.Max() > row.StormMax {
			row.StormMax = ep.Storm.Max()
		}
	}
	row.AltDropped = cl.Filter.AltDropped
	if row.RCDelivered > 0 {
		row.RCLatencyP99US = lat.P99()
		row.RCLatencyMaxUS = lat.Max()
	}
	return row, nil
}
