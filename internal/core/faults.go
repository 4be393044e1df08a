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

// FaultRow is one point of the fault-injection experiment: the fabric
// under a deterministic chaos plan (link outages and a bit-error burst)
// with the SM's self-healing re-sweep active, for one enforcement design.
type FaultRow struct {
	Mode      enforce.Mode `csv:"mode"`
	BER       float64      `csv:"ber,%g"`
	LinkKills int          `csv:"kills"`

	// Datagram background traffic: delivered fraction tells how much the
	// outages cost the unreliable service.
	Sent          uint64  `csv:"sent"`
	Delivered     uint64  `csv:"delivered"`
	DeliveredFrac float64 `csv:"delivered_frac"`

	// Where the missing packets went.
	Blackholed   uint64 `csv:"blackholed"`   // destroyed by dead links
	HOQDropped   uint64 `csv:"hoq_dropped"`  // aged out by the Head-of-Queue lifetime limit
	CRCRejected  uint64 `csv:"crc_rejected"` // VCRC/ICRC rejects from the bit-error burst
	AuthRejected uint64 `csv:"auth_rejected"`

	// Reliable probe flows: RC connections that must ride the outages out
	// on retransmission while the SM heals the routes underneath them.
	RCSent         uint64  `csv:"rc_sent"`
	RCDelivered    uint64  `csv:"rc_delivered"`
	RCBroken       uint64  `csv:"rc_broken"`
	RCLatencyP99US float64 `csv:"rc_p99_us"` // p99 end-to-end latency: the recovery tail

	// Self-healing control loop.
	DetectUS  float64 `csv:"detect_us"`  // mean failure-to-detection latency
	RerouteUS float64 `csv:"reroute_us"` // mean detection-to-reprogrammed latency
	Resweeps  uint64  `csv:"resweeps"`
	Reroutes  uint64  `csv:"reroutes"`
}

// rcProbe is one reliable probe flow of the fault experiment.
type rcProbe struct {
	qp        *transport.QP
	ep        *transport.Endpoint
	connected bool
	sent      uint64
	delivered uint64
	latency   *metrics.Recorder
}

// FaultsSweep runs the chaos experiment: for each enforcement design it
// sweeps bit-error rate × concurrent link kills, with the subnet
// manager's periodic re-sweep healing the fabric around the failures.
// Unreliable background traffic measures raw loss; RC probe flows
// measure whether connections survive and how long the recovery tail is.
func FaultsSweep(ctx context.Context, pool *runner.Pool, bers []float64, kills []int, base Config) ([]FaultRow, error) {
	var points []faultPoint
	for _, mode := range []enforce.Mode{enforce.DPT, enforce.IF, enforce.SIF} {
		for _, ber := range bers {
			for _, k := range kills {
				points = append(points, faultPoint{Mode: mode, BER: ber, Kills: k})
			}
		}
	}
	return sweep(ctx, pool, "faults", points, func(p faultPoint) (FaultRow, error) { return runFaultPoint(base, p) })
}

// faultPoint is one cell of the fault sweep.
type faultPoint struct {
	Mode  enforce.Mode
	BER   float64
	Kills int
}

// runFaultPoint runs one cell of the sweep.
func runFaultPoint(base Config, p faultPoint) (FaultRow, error) {
	cfg, err := faultPointCfg(base, p)
	if err != nil {
		return FaultRow{}, err
	}
	cl, err := Build(cfg)
	if err != nil {
		return FaultRow{}, err
	}
	probes, lat, err := armFaultProbes(cl)
	if err != nil {
		return FaultRow{}, err
	}
	res := cl.Simulate()

	row := FaultRow{
		Mode: p.Mode, BER: p.BER, LinkKills: p.Kills,
		Sent: res.SentLegit, Delivered: res.DeliveredUD,
		Blackholed:   faults.Blackholed(cl.Mesh),
		AuthRejected: res.AuthFail,
	}
	if row.Sent > 0 {
		row.DeliveredFrac = float64(row.Delivered) / float64(row.Sent)
	}
	for _, sw := range cl.Mesh.Switches {
		row.CRCRejected += sw.Counters.Value(fabric.SwVCRCDrops)
		row.HOQDropped += sw.HOQDropped()
	}
	for _, h := range cl.Mesh.HCAs {
		row.CRCRejected += h.Counters.Value(fabric.HCAVCRCDrops) + h.Counters.Value(fabric.HCAICRCDrops)
		row.HOQDropped += h.HOQDropped()
	}

	for _, pr := range probes {
		row.RCSent += pr.sent
		row.RCDelivered += pr.delivered
		if pr.qp.Broken() {
			row.RCBroken++
		}
	}
	if row.RCDelivered > 0 {
		row.RCLatencyP99US = lat.P99()
	}

	if r := cl.Resweeper; r != nil {
		row.Resweeps = r.Counters.Value(sm.ResweepSweeps)
		row.Reroutes = r.Counters.Value(sm.ResweepReroutes)
		row.RerouteUS = r.RerouteLatency.Mean()
	}
	row.DetectUS = meanDetectionUS(cfg.FaultPlan, cl.healEvents)
	return row, nil
}

// faultPointCfg is base configured as one cell: healingCfg plus the
// cell's chaos plan.
func faultPointCfg(base Config, p faultPoint) (Config, error) {
	cfg := healingCfg(base, p.Mode)
	// Outages fall in [warmup, duration/2) so every killed link also
	// restores well before the run ends and the probe flows can drain.
	plan, err := faults.Chaos(cfg.Seed, cfg.MeshW, cfg.MeshH, p.Kills, cfg.Warmup, cfg.Duration/2)
	if err != nil {
		return Config{}, err
	}
	if p.BER != 0 { // a negative rate reaches the plan's validation
		plan.BER = append(plan.BER, faults.BERBurst{
			Rate: p.BER, From: cfg.Warmup, Until: cfg.Duration * 3 / 4,
		})
	}
	cfg.FaultPlan = plan
	return cfg, nil
}

// healingCfg is base set up for the experiments that break the fabric
// under the SM's periodic self-healing re-sweep (faults, apm, health):
// the given enforcement mode, no attackers, a fixed background load and
// a Head-of-Queue lifetime.
func healingCfg(base Config, mode enforce.Mode) Config {
	cfg := base
	cfg.Enforcement = mode
	cfg.Attackers = 0
	cfg.RealtimeLoad = 0
	// Fixed moderate background load: outages concentrate traffic on the
	// surviving links, and at the DoS experiments' near-saturation loads
	// the delivered fraction would measure congestion backlog rather
	// than fault loss.
	cfg.BestEffortLoad = 0.3
	cfg.ResweepPeriod = 200 * sim.Microsecond
	// Arm the Head-of-Queue lifetime limit: the healed routes are
	// shortest-path around the failure, not dimension-ordered, so
	// rerouting can create cyclic credit dependencies — without HOQ
	// ageing, a deadlocked cycle holds its buffers (and everything
	// upstream) until the end of the run. Copy the params first: the
	// base config's value is shared across concurrent sweep points.
	cfg.Params = cfg.Params.Clone()
	cfg.Params.HOQLife = 100 * sim.Microsecond
	return cfg
}

// armFaultProbes arms a fault point's RC probe flows on cl: partition-
// level keys, the longest same-partition pairs.
func armFaultProbes(cl *Cluster) ([]*rcProbe, *metrics.Recorder, error) {
	probes, lat, _, err := armRCProbes(cl, rcPairs(cl, maxProbeFlows, false), transport.Config{
		Registry: mac.DefaultRegistry(),
		KeyLevel: transport.PartitionLevel,
	}, nil)
	return probes, lat, err
}

// meanDetectionUS averages, over healing events that lost edges, the time
// from the most recent scheduled fault before the detection to the
// detection itself — the fabric's failure-to-detection latency.
func meanDetectionUS(p *faults.Plan, events []sm.HealEvent) float64 {
	var downs []sim.Time
	for _, lk := range p.Links {
		downs = append(downs, lk.DownAt)
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
	var w metrics.Welford
	for _, ev := range events {
		if ev.LostEdges == 0 || ev.DetectedAt == 0 {
			continue
		}
		var at sim.Time = -1
		for _, d := range downs {
			if d <= ev.DetectedAt {
				at = d
			}
		}
		if at < 0 {
			continue
		}
		w.Add((ev.DetectedAt - at).Microseconds())
	}
	return w.Mean()
}

// maxProbeFlows bounds the number of RC probe pairs per run.
const maxProbeFlows = 6

// rcPair is one probe pair with its Manhattan distance.
type rcPair struct{ a, b, dist int }

// rcPairs picks up to max probe pairs: the longest same-partition paths,
// ties broken by node. With bothDims only pairs whose coordinates differ
// in both dimensions qualify, so the Y-then-X alternate route is
// link-disjoint from the X-then-Y primary and killing the primary's
// first hop cannot touch it.
func rcPairs(cl *Cluster, max int, bothDims bool) []rcPair {
	w, n := cl.Cfg.MeshW, len(cl.PKeyOf)
	var pairs []rcPair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if cl.PairPKey(a, b) == 0 {
				continue
			}
			ax, ay := a%w, a/w
			bx, by := b%w, b/w
			if bothDims && (ax == bx || ay == by) {
				continue // primary and alternate would share links
			}
			pairs = append(pairs, rcPair{a, b, abs(ax-bx) + abs(ay-by)})
		}
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
	if len(pairs) > max {
		pairs = pairs[:max]
	}
	return pairs
}

// armRCProbes creates one reliable probe flow per pair: an RC QP pair
// under tcfg that connects at start-up and then sends a timestamped
// message every probe interval until three quarters of the run, leaving
// the tail for retransmissions to drain. altPath, when non-nil, runs on
// each pair's requester QP before it connects (APM's path-record step).
// Endpoints a node lacks are created and installed in cl.Endpoints before
// Simulate, so the collector wires them as the delivery sink. It returns
// the probes, the recorder aggregating end-to-end latency over all flows,
// and the endpoints it created.
func armRCProbes(cl *Cluster, pairs []rcPair, tcfg transport.Config, altPath func(rcPair, *transport.QP) error) ([]*rcProbe, *metrics.Recorder, []*transport.Endpoint, error) {
	lat := metrics.NewRecorder(0, 100_000, 400)
	var eps []*transport.Endpoint
	endpoint := func(node int) *transport.Endpoint {
		if ep := cl.Endpoints[node]; ep != nil {
			return ep
		}
		ep := transport.NewEndpoint(cl.Mesh.HCA(node), tcfg)
		cl.Endpoints[node] = ep
		eps = append(eps, ep)
		return ep
	}

	var probes []*rcProbe
	for _, pr := range pairs {
		pk := cl.PairPKey(pr.a, pr.b)
		epA, epB := endpoint(pr.a), endpoint(pr.b)
		qpA := epA.CreateRCQP(pk)
		qpB := epB.CreateRCQP(pk)
		if altPath != nil {
			if err := altPath(pr, qpA); err != nil {
				return nil, nil, nil, err
			}
		}
		probe := &rcProbe{qp: qpA, ep: epA, latency: lat}
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
			return nil, nil, nil, fmt.Errorf("core: RC probe connect %d->%d: %w", pr.a, pr.b, err)
		}
		probes = append(probes, probe)
	}

	// One message per flow every interval, staggered so the flows do not
	// inject in lockstep; stop at 3/4 of the run so the drain window can
	// absorb the recovery tail.
	interval := 20 * sim.Microsecond
	cutoff := cl.Cfg.Duration * 3 / 4
	for i, probe := range probes {
		cl.Sim.ScheduleAt(sim.Time(i)*interval/sim.Time(len(probes)), func() {
			cl.Sim.Every(interval, func() {
				if !probe.connected || probe.qp.Broken() || cl.Sim.Now() > cutoff {
					return
				}
				payload := make([]byte, 64)
				binary.BigEndian.PutUint64(payload, uint64(cl.Sim.Now()))
				if err := probe.ep.SendRC(probe.qp, payload, fabric.ClassBestEffort); err != nil {
					panic(fmt.Sprintf("core: RC probe send: %v", err))
				}
				probe.sent++
			})
		})
	}
	return probes, lat, eps, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// startResweeper starts the SM's periodic self-healing re-sweep from the
// configured SM node. It is the master's own control loop: an SMKill
// stops it and no takeover restarts it.
func (cl *Cluster) startResweeper() {
	r := sm.NewResweeper(cl.Sim, cl.newDiscoverer(cl.Cfg.SM.Node), cl.Cfg.ResweepPeriod)
	r.PrimeStatic(cl.Mesh)
	r.OnEvent = func(ev sm.HealEvent) {
		cl.healEvents = append(cl.healEvents, ev)
		if cl.OnHeal != nil {
			cl.OnHeal(ev)
		}
	}
	r.Start()
	cl.Resweeper = r
}

// installFaultPlan installs the run's fault plan on the fabric and
// schedules its management-plane faults, which act on the coordinator,
// the rotator and the filter — handles only the core layer holds, so
// they are scheduled here and not in faults.Install.
func (cl *Cluster) installFaultPlan() {
	plan := cl.Cfg.FaultPlan
	if err := faults.Install(cl.Sim, cl.Mesh, cl.Cfg.Params, plan); err != nil {
		// The plan was validated against this mesh in Build.
		panic(fmt.Sprintf("core: installing fault plan: %v", err))
	}

	for _, sk := range plan.SMKills {
		cl.Sim.ScheduleAt(sk.At, func() {
			// The master's control loops die with it; a takeover
			// restarts all but the resweeper.
			cl.stopMasterDuties()
			cl.HA.KillMaster() // Build makes a coordinator for any plan with SMKills
		})
	}
	for _, tc := range plan.Corruptions {
		target := cl.resolveCorruptionSwitch(tc.Switch)
		cl.Sim.ScheduleAt(tc.At, func() {
			// Out-of-band state corruption: the switch's programmed
			// enforcement state is mutated behind the SM's back, the
			// divergence the drift auditor exists to catch.
			sw := cl.Mesh.Switches[target]
			switch tc.Op {
			case faults.CorruptAddValid:
				cl.Filter.AddValid(sw, packet.PKey(tc.PKey))
			case faults.CorruptRemoveValid:
				cl.Filter.RemoveValid(sw, packet.PKey(tc.PKey))
			case faults.CorruptClearInvalid:
				cl.Filter.ClearInvalid(sw)
			case faults.CorruptDeactivate:
				cl.Filter.SetActive(sw, false)
			}
		})
	}
	for _, kc := range plan.Compromises {
		cl.Sim.ScheduleAt(kc.At, func() {
			if cl.Rotator == nil {
				return
			}
			// A dead management plane cannot respond: the
			// compromised epoch stays live — the unprotected
			// baseline the HA arms are measured against.
			if cl.HA != nil && !cl.HA.MasterAlive() {
				return
			}
			if err := cl.Rotator.ForceRotate(packet.PKey(kc.PKey)); err != nil {
				panic(fmt.Sprintf("core: forced rotation: %v", err))
			}
		})
	}
}

// resolveCorruptionSwitch maps a fault plan's symbolic switch target to
// a concrete switch index: every node's ingress switch is the
// same-index switch in the mesh, so the attacker's ingress is the
// lowest-index compromised node and the victim's is the lowest-index
// legitimate member of the lowest-base partition.
func (cl *Cluster) resolveCorruptionSwitch(target int) int {
	switch target {
	case faults.SwitchAttackerIngress:
		for node := 0; node < cl.Mesh.NumNodes(); node++ {
			if cl.AttackSet[node] {
				return node
			}
		}
		panic("core: attacker-ingress corruption with no attackers")
	case faults.SwitchVictimIngress:
		for node := 0; node < cl.Mesh.NumNodes(); node++ {
			if cl.PKeyOf[node] == packet.PKey(0x8001) && !cl.AttackSet[node] {
				return node
			}
		}
		panic("core: no legitimate member in the lowest partition")
	default:
		return target
	}
}
