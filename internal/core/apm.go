package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
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
	Arm       APMArm
	BER       float64
	LinkKills int

	// Ride-through: probe messages sent vs delivered, and connections
	// that broke outright.
	RCSent        uint64
	RCDelivered   uint64
	DeliveredFrac float64
	RCBroken      uint64

	// Recovery mechanics.
	NAKs         uint64 // explicit sequence-error NAKs sent by responders
	Migrations   uint64 // APM failovers onto the alternate path
	Rearms       uint64 // returns to the healed primary
	Retrans      uint64 // head retransmissions
	RetransBytes uint64
	StormMax     uint64 // densest 100 µs retransmission window
	AltDropped   uint64 // migrated packets SIF dropped for missing registrations

	// Recovery latency: the delivered probes' end-to-end tail. Max is
	// the longest ride-through any single message needed.
	RCLatencyP99US float64
	RCLatencyMaxUS float64
}

// APMSweep runs the apm experiment: BER × primary-path link kills ×
// recovery arm, against RC probe flows.
func APMSweep(ctx context.Context, pool *runner.Pool, bers []float64, kills []int, base Config) ([]APMRow, error) {
	arms := []APMArm{ArmTimeout, ArmNAK, ArmAPMRegistered, ArmAPMUnregistered}
	jobs := make([]runner.Job[APMRow], 0, len(arms)*len(bers)*len(kills))
	for _, arm := range arms {
		for _, ber := range bers {
			for _, k := range kills {
				arm, ber, k := arm, ber, k
				jobs = append(jobs, sweepJob("apm", len(jobs), base.Seed,
					fmt.Sprintf("arm=%s,ber=%g,kills=%d", arm, ber, k),
					func(context.Context) (APMRow, error) {
						return runAPMPoint(base, arm, ber, k)
					}))
			}
		}
	}
	return runner.Run(ctx, pool, jobs)
}

// maxAPMFlows bounds the probe pairs per run.
const maxAPMFlows = 4

// apmPair is one probe pair with its Manhattan distance.
type apmPair struct{ a, b, dist int }

// apmPairs picks the probe pairs: the longest same-partition paths whose
// coordinates differ in both dimensions, so the Y-then-X alternate route
// is link-disjoint from the X-then-Y primary and killing the primary's
// first hop cannot touch it.
func apmPairs(cl *Cluster) []apmPair {
	w := cl.Cfg.MeshW
	var pairs []apmPair
	for key := range cl.PairPKey {
		a, b := key[0], key[1]
		if a >= b {
			continue
		}
		ax, ay := a%w, a/w
		bx, by := b%w, b/w
		if ax == bx || ay == by {
			continue // primary and alternate would share links
		}
		pairs = append(pairs, apmPair{a, b, abs(ax-bx) + abs(ay-by)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].dist != pairs[j].dist {
			return pairs[i].dist > pairs[j].dist
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	if len(pairs) > maxAPMFlows {
		pairs = pairs[:maxAPMFlows]
	}
	return pairs
}

// runAPMPoint runs one (arm, BER, kills) cell of the sweep.
func runAPMPoint(base Config, arm APMArm, ber float64, kills int) (APMRow, error) {
	cfg := base
	cfg.Enforcement = enforce.SIF
	cfg.Attackers = 0
	cfg.RealtimeLoad = 0
	cfg.BestEffortLoad = 0.3
	cfg.ResweepPeriod = 200 * sim.Microsecond
	// Copy the params before arming HOQ ageing: the base config's value
	// is shared across concurrent sweep points, and healed routes can
	// deadlock without it (see runFaultPoint).
	cfg.Params = cfg.Params.Clone()
	cfg.Params.HOQLife = 100 * sim.Microsecond

	// The fault plan targets the probe flows' primary paths, and the
	// probe pairs depend on the seed-derived partition grouping computed
	// inside Build — so assemble a scout cluster (never simulated) purely
	// to learn the pair set. Same config, same pairs.
	scout, err := Build(cfg)
	if err != nil {
		return APMRow{}, err
	}
	pairs := apmPairs(scout)

	// One synchronized kill shortly after warmup, restored at 5/8 of the
	// run: every arm faces the same outage and the drain window still
	// absorbs the recovery tail.
	plan := &faults.Plan{Seed: cfg.Seed}
	killAt := cfg.Warmup + 100*sim.Microsecond
	killUntil := cfg.Duration * 5 / 8
	seen := make(map[topology.LinkID]bool)
	for _, pr := range pairs {
		if len(plan.Links) >= kills {
			break
		}
		link, ok := faults.PrimaryHopLink(cfg.MeshW, pr.a, pr.b)
		if !ok || seen[link] {
			continue
		}
		seen[link] = true
		plan.Links = append(plan.Links, faults.LinkKill{Link: link, DownAt: killAt, UpAt: killUntil})
	}
	if ber > 0 {
		plan.BER = append(plan.BER, faults.BERBurst{
			Rate: ber, From: cfg.Warmup, Until: cfg.Duration * 3 / 4,
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

	probes, lat, eps, err := armAPMProbes(cl, pairs, arm)
	if err != nil {
		return APMRow{}, err
	}
	if arm.enableAPM() {
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

	row := APMRow{Arm: arm, BER: ber, LinkKills: kills}
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
		row.NAKs += ep.Counters.Get("rc_naks_sent")
		row.Migrations += ep.Counters.Get("rc_migrations")
		row.Rearms += ep.Counters.Get("rc_rearms")
		row.Retrans += ep.Counters.Get("rc_retransmissions")
		row.RetransBytes += ep.Counters.Get("rc_retrans_bytes")
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

// armAPMProbes wires the probe flows with the arm's transport knobs and
// (for APM arms) SM-provided alternate paths. It returns the probes, the
// shared latency recorder, and the distinct endpoints created.
func armAPMProbes(cl *Cluster, pairs []apmPair, arm APMArm) ([]*rcProbe, *metrics.Recorder, []*transport.Endpoint, error) {
	lat := metrics.NewRecorder(0, 100_000, 400)
	tcfg := transport.Config{
		Registry: mac.DefaultRegistry(),
		KeyLevel: transport.PartitionLevel,
		// A tight retry period with a generous budget: recovery cadence
		// is the experiment's subject, and the budget must outlast the
		// outage so the timeout-only arm measures latency, not breakage.
		RetryTimeout: 20 * sim.Microsecond,
		MaxRetries:   30,
		EnableNAK:    arm.enableNAK(),
		RetryBackoff: arm.enableNAK(),
	}
	var eps []*transport.Endpoint
	endpoint := func(node int) *transport.Endpoint {
		if ep := cl.Endpoints[node]; ep != nil {
			return ep
		}
		ep := transport.NewEndpoint(cl.Mesh.HCA(node), tcfg)
		ep.Storm = metrics.NewStorm(100) // 100 µs windows
		cl.Endpoints[node] = ep
		eps = append(eps, ep)
		return ep
	}

	mkey := cl.Cfg.SM.MKey
	var probes []*rcProbe
	for _, pr := range pairs {
		pk := cl.PairPKey[[2]int{pr.a, pr.b}]
		epA, epB := endpoint(pr.a), endpoint(pr.b)
		qpA := epA.CreateRCQP(pk)
		qpB := epB.CreateRCQP(pk)
		if arm.enableAPM() {
			register := arm == ArmAPMRegistered
			rec, err := cl.SM.QueryPathRecord(mkey, pr.a, pr.b, register)
			if err != nil {
				return nil, nil, nil, err
			}
			qpA.SetAlternatePath(rec.AltDLID, 2)
		}
		probe := &rcProbe{src: pr.a, dst: pr.b, qp: qpA, ep: epA, latency: lat}
		qpB.OnRecv = func(payload []byte, _ packet.LID, _ packet.QPN) {
			if len(payload) < 8 {
				return
			}
			stamp := sim.Time(binary.BigEndian.Uint64(payload))
			probe.delivered++
			probe.latency.Add((cl.Sim.Now() - stamp).Microseconds())
		}
		if err := epA.ConnectRC(qpA, topology.LIDOf(pr.b), qpB.N, func(err error) {
			probe.connected = err == nil
		}); err != nil {
			return nil, nil, nil, fmt.Errorf("core: apm probe connect %d->%d: %w", pr.a, pr.b, err)
		}
		probes = append(probes, probe)
	}
	if len(probes) == 0 {
		return nil, lat, eps, nil
	}

	interval := 20 * sim.Microsecond
	cutoff := cl.Cfg.Duration * 3 / 4
	for i, probe := range probes {
		probe := probe
		cl.Sim.ScheduleAt(sim.Time(i)*interval/sim.Time(len(probes)), func() {
			cl.Sim.Every(interval, func() {
				if !probe.connected || probe.qp.Broken() || cl.Sim.Now() > cutoff {
					return
				}
				payload := make([]byte, 64)
				binary.BigEndian.PutUint64(payload, uint64(cl.Sim.Now()))
				if err := probe.ep.SendRC(probe.qp, payload, fabric.ClassBestEffort); err != nil {
					panic(fmt.Sprintf("core: apm probe send: %v", err))
				}
				probe.sent++
			})
		})
	}
	return probes, lat, eps, nil
}
