package core

import (
	"fmt"
	"math/rand"
	"sort"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/policy"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/trace"
	"ibasec/internal/transport"
	"ibasec/internal/workload"
)

// Results aggregates one run's measurements. Delay statistics are in
// microseconds, the paper's reporting unit, and cover legitimate
// (non-attack, non-management) traffic delivered after the warmup.
type Results struct {
	Config Config

	Realtime   metrics.LatencySplit
	BestEffort metrics.LatencySplit

	SentLegit      uint64
	DeliveredLegit uint64
	// DeliveredUD counts every non-attack datagram delivery over the
	// whole run, warmup included — the denominator-matched counterpart of
	// SentLegit for loss accounting (DeliveredLegit is the
	// measurement-windowed count the delay statistics are built from).
	DeliveredUD     uint64
	WithheldRT      uint64
	AttackDelivered uint64 // attack packets that reached a victim HCA
	HCAViolations   uint64

	FilterLookups     uint64
	FilterDropped     uint64
	FilterActivations uint64

	TrapsSent        uint64
	SIFRegistrations uint64
	KeyExchanges     uint64
	PacketsSigned    uint64
	AuthOK           uint64
	AuthFail         uint64

	// Link utilization across all directed channels (switch ports and
	// HCA uplinks): fraction of the run each spent serializing.
	MeanLinkUtil float64
	MaxLinkUtil  float64

	// Drift-auditor aggregates, non-zero only with Config.Policy
	// auditing on: detected drift events, how many were fully repaired,
	// and the in-band MAD cost of watching (audit probes) and fixing
	// (repair Sets) the fabric.
	DriftEvents   uint64
	DriftRepaired uint64
	AuditMADs     uint64
	RepairMADs    uint64

	// Congestion-control aggregates, all zero unless Config.Congestion
	// enables the annex. AttackerCCT is the largest congestion-control-
	// table index across attacker HCAs at the end of the run (non-zero
	// means the fabric was still throttling the flood when the run
	// ended); CongestionSpan is the number of switches with any FECN
	// marking activity — the blast radius of the congestion tree.
	FECNMarked     uint64
	CNPsSent       uint64
	BECNsNotified  uint64
	CCTThrottled   uint64
	AttackerCCT    int
	CongestionSpan int
	// CreditStallNs sums, over every switch output port, the time spent
	// with backlog but no transmittable VL — upstream HOL-blocking
	// pressure. Collected whether or not congestion control is on.
	CreditStallNs uint64

	// Health-plane aggregates, all zero unless Config.Health enables the
	// PerfMgr. Quarantines counts links fenced, Readmits links returned
	// to service, QuarantineRefused proposals the connectivity guard
	// vetoed; the MAD counters split the in-band cost into sweep reads,
	// trap notifications (plus their rearm Sets) and the reroute Sets
	// that reprogram forwarding tables around a fenced link.
	Quarantines       uint64
	Readmits          uint64
	QuarantineRefused uint64
	HealthSweepMADs   uint64
	HealthTrapMADs    uint64
	HealthRerouteMADs uint64
}

// Cluster is a fully wired simulation instance. Most callers use Run;
// Build is exposed for what drives the assembled system by hand: the
// Table 3 attack scenarios (internal/attack), examples/secure-rdma and
// tests.
type Cluster struct {
	Cfg       Config
	Sim       *sim.Simulator
	Mesh      *topology.Mesh
	Filter    *enforce.Filter
	SM        *sm.SubnetManager
	Endpoints []*transport.Endpoint // nil entries when auth is off
	PKeyOf    []packet.PKey         // node -> its partition's P_Key
	Partners  [][]int               // node -> its partition's other members
	AttackSet map[int]bool
	Rng       *rand.Rand
	// Trace is the packet-lifecycle recorder, non-nil when
	// Config.TraceCapacity > 0.
	Trace *trace.Ring
	// Resweeper is the SM's periodic self-healing loop, non-nil when
	// Config.ResweepPeriod > 0 (wired during Simulate).
	Resweeper *sm.Resweeper
	// HA is the SM failover coordinator, non-nil when Config.HA has
	// standbys or the fault plan schedules an SMKill.
	HA *sm.Coordinator
	// Standbys are the standby SM instances, in priority order.
	Standbys []*sm.SubnetManager
	// Rotator drives key-epoch rotation, non-nil when Config.Rekey is
	// enabled (started during Simulate).
	Rotator *sm.Rotator
	// Policy is the compiled enforcement intent, non-nil when
	// Config.Policy.Enabled (bring-up ran through the policy plane).
	Policy *policy.Intent
	// Auditor is the continuous drift auditor, non-nil when
	// Config.Policy.AuditPeriod > 0 (started during Simulate). After a
	// failover it is rebound to the promoted master.
	Auditor *policy.Auditor
	// OnHeal, when non-nil, observes every re-sweep healing event (set
	// before Simulate; the apm experiment uses it to rearm migrated RC
	// connections once the primary path heals).
	OnHeal func(sm.HealEvent)
	// PerfMgr is the health plane's sweep/score/quarantine loop, non-nil
	// when Config.Health is enabled (wired during Simulate). After a
	// failover it is rebuilt on the promoted master.
	PerfMgr *sm.PerfMgr
	// OnHealth, when non-nil, observes every quarantine transition (set
	// before Simulate; the health experiment uses it for detection
	// latency).
	OnHealth func(sm.HealthEvent)

	// IslandRotators tracks per-island key rotators started at contained
	// takeovers, keyed by the island master SM. Populated only with
	// HA.SplitBrain; the splitbrain experiment reads rollover counts
	// from it.
	IslandRotators map[*sm.SubnetManager]*sm.Rotator

	res        *Results
	healEvents []sm.HealEvent
	// rngSplit feeds authority forks at contained takeovers — its own
	// stream, so enabling split-brain handling cannot perturb the
	// setup/crypto/traffic draws other arms depend on.
	rngSplit *rand.Rand
	// auditors and perfMgrs list every drift auditor and performance
	// manager the run started, the ones a failover displaced included, so
	// all their counters and events reach the results.
	auditors []*policy.Auditor
	perfMgrs []*sm.PerfMgr
	// discoverers lists every plane's SMP prober in creation order, so a
	// composed run's request accounting can be read back per plane.
	discoverers []*sm.Discoverer
	// switchAgents holds the in-band switch agents, when any plane
	// attached them, so their transit reseals can be read back.
	switchAgents []*sm.SwitchAgent
}

// Run builds the cluster from cfg, simulates it, and returns the results.
func Run(cfg Config) (*Results, error) {
	cl, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return cl.Simulate(), nil
}

// Build assembles the cluster without starting traffic.
func Build(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Three independent streams so that enabling authentication (which
	// consumes crypto randomness) cannot change partition grouping,
	// attacker placement, or traffic arrival times — experiment arms
	// must differ only in the mechanism under test. Authentication is
	// the crypto stream's only consumer, so it is seeded only then.
	rngSetup := sim.NewRand(cfg.Seed)
	rngTraffic := sim.NewRand(cfg.Seed ^ 0x7AFF1C)
	// Each cluster owns a copy of the params: sweep points running
	// concurrently share the base config's value, and the fabric's message
	// free list hangs off it; error injection, tracing and congestion
	// settings then cannot leak into other runs either.
	p := cfg.Params.Clone()
	var ring *trace.Ring
	if cfg.TraceCapacity > 0 {
		ring = trace.NewRing(cfg.TraceCapacity)
		p.Observer = ring
	}
	if cfg.Congestion.Enabled() {
		p.Congestion = cfg.Congestion
	}
	cfg.Params = p
	s := sim.New()
	mesh := topology.NewMesh(s, cfg.Params, cfg.MeshW, cfg.MeshH)
	n := mesh.NumNodes()
	if cfg.FaultPlan != nil {
		if err := cfg.FaultPlan.Validate(mesh); err != nil {
			return nil, err
		}
	}

	var filter *enforce.Filter
	if cfg.Enforcement != enforce.NoFiltering {
		filter = enforce.NewFilter(cfg.Enforcement, cfg.Params)
		mesh.SetFilterAll(filter)
	}
	manager := sm.New(s, mesh, filter, cfg.SM)

	cl := &Cluster{
		Cfg:       cfg,
		Sim:       s,
		Mesh:      mesh,
		Filter:    filter,
		SM:        manager,
		Endpoints: make([]*transport.Endpoint, n),
		PKeyOf:    make([]packet.PKey, n),
		Partners:  make([][]int, n),
		AttackSet: make(map[int]bool),
		Rng:       rngTraffic,
		Trace:     ring,
		res:       &Results{Config: cfg},

		IslandRotators: make(map[*sm.SubnetManager]*sm.Rotator),
	}
	if cfg.HA.SplitBrain {
		cl.rngSplit = sim.NewRand(cfg.Seed ^ 0x5B117B)
	}

	groups := partitionGroups(&cfg, rngSetup, n)

	// Key-management scaffolding.
	var dir *keys.Directory
	var kps []*keys.NodeKeyPair
	if cfg.Auth.Enabled {
		rngCrypto := sim.NewRand(cfg.Seed ^ 0x5EC0DE)
		dir = keys.NewDirectory()
		if cfg.Auth.Level == transport.QPLevel {
			kps = make([]*keys.NodeKeyPair, n)
			for i := 0; i < n; i++ {
				kp, err := keys.GenerateNodeKeyPair(rngCrypto)
				if err != nil {
					return nil, fmt.Errorf("core: node %d key pair: %w", i, err)
				}
				kps[i] = kp
				dir.Register(mesh.HCA(i).Name(), kp.Public())
			}
		} else {
			manager.Authority = keys.NewPartitionAuthority(rngCrypto)
		}
		// Distribution hooks: the SM (and any standby promoted in its
		// place) reaches member key stores through these closures.
		manager.InstallSecret = func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32) {
			if ep := cl.Endpoints[node]; ep != nil {
				ep.Store.InstallPartitionEpoch(pk, epoch, k)
			}
		}
		manager.RetireSecret = func(node int, pk packet.PKey, epoch uint32) {
			if ep := cl.Endpoints[node]; ep != nil {
				ep.Store.RetirePartitionEpoch(pk, epoch)
			}
		}
		manager.WipeSecrets = func(node int, pk packet.PKey) {
			if ep := cl.Endpoints[node]; ep != nil {
				ep.Store.WipePartitionSecret(pk)
				ep.Store.WipeQPSecrets()
			}
		}
		// Transport endpoints (created before partitions so secret
		// installation finds their stores).
		cl.Endpoints = transport.NewEndpoints(mesh.HCAs, transport.Config{
			Registry:  mac.DefaultRegistry(),
			AuthID:    cfg.Auth.FuncID,
			KeyLevel:  cfg.Auth.Level,
			RNG:       rngCrypto,
			Directory: dir,
		}, kps)
		// MAC generation adds one pipeline stage per message (section 6)
		// — or, when a finite engine throughput is configured, the time
		// to digest the message at that rate.
		extra := cfg.Params.ClockCycle
		if cfg.Auth.ThroughputGbps > 0 {
			extra = sim.Time(float64(cfg.MsgSize*8) / cfg.Auth.ThroughputGbps * 1000)
		}
		for _, h := range mesh.HCAs {
			h.ExtraSendDelay = extra
		}
	}

	// Create the partitions through the SM; PKeyOf holds each node's
	// partition key and Partners its partition's other members, in group
	// order, as windows of one slab. Under the policy plane the same
	// grouping is expressed as a declarative document and programmed
	// from its compiled intent instead of imperative calls.
	slots := 0
	for _, members := range groups {
		slots += len(members) * (len(members) - 1)
	}
	slab := make([]int, 0, slots)
	for g, members := range groups {
		pk := packet.PKey(0x8000 | uint16(g+1))
		if !cfg.Policy.Enabled {
			if err := manager.CreatePartition(cfg.SM.MKey, pk, members); err != nil {
				return nil, fmt.Errorf("core: creating partition %d: %w", g, err)
			}
		}
		for _, node := range members {
			cl.PKeyOf[node] = pk
			start := len(slab)
			for _, peer := range members {
				if peer != node {
					slab = append(slab, peer)
				}
			}
			cl.Partners[node] = slab[start:len(slab):len(slab)]
		}
	}
	if cfg.Policy.Enabled {
		doc := policyDocument(&cfg, groups)
		intent, err := policy.Program(doc, manager, mesh, filter, cfg.SM.MKey)
		if err != nil {
			return nil, fmt.Errorf("core: programming policy: %w", err)
		}
		cl.Policy = intent
	} else {
		manager.ProgramSwitchTables()
	}
	if cfg.Enforcement == enforce.SIF {
		manager.AttachTraps()
	}
	if cfg.Congestion.Enabled() {
		// Bring-up step of the CC annex: the SM's congestion manager
		// programs marking thresholds into the switches and CCT
		// parameters into the HCAs, and leaves the encoded blob on the
		// master so HA state sync carries it to standbys.
		manager.ProgramCongestionControl(cfg.Congestion)
	}

	// Standby SM placement: the highest-index nodes, skipping the
	// master's, in priority order. Deterministic by construction and
	// independent of the RNG streams, so enabling HA cannot move
	// attackers or reshuffle partitions.
	standbyNodes := make([]int, 0, cfg.HA.Standbys)
	standbySet := make(map[int]bool)
	for node := n - 1; node >= 0 && len(standbyNodes) < cfg.HA.Standbys; node-- {
		if node == cfg.SM.Node {
			continue
		}
		standbyNodes = append(standbyNodes, node)
		standbySet[node] = true
	}

	// Choose attackers among non-SM (and, with HA, non-standby) nodes.
	candidates := make([]int, 0, n-1)
	for _, node := range rngSetup.Perm(n) {
		if node != cfg.SM.Node && !standbySet[node] {
			candidates = append(candidates, node)
		}
	}
	for i := 0; i < cfg.Attackers; i++ {
		cl.AttackSet[candidates[i]] = true
	}

	// HA ensemble: standby SMs share the master's filter and key
	// authority, run on their own nodes with every periodic duty parked,
	// and are seeded by the coordinator with the initial partition state
	// (its in-band state-sync MADs keep them fresh thereafter). A coordinator
	// also exists with zero standbys when the plan kills the SM, so the
	// unrecovered-loss baseline is measured through the same machinery.
	if cfg.HA.Enabled() || (cfg.FaultPlan != nil && len(cfg.FaultPlan.SMKills) > 0) {
		for _, node := range standbyNodes {
			sbCfg := cfg.SM
			sbCfg.Node = node
			sb := sm.NewStandby(s, mesh, filter, sbCfg)
			sb.Authority = manager.Authority
			sb.InstallSecret = manager.InstallSecret
			sb.RetireSecret = manager.RetireSecret
			sb.WipeSecrets = manager.WipeSecrets
			cl.Standbys = append(cl.Standbys, sb)
		}
		coord, err := sm.NewCoordinator(s, mesh, cfg.HA, cfg.SM.MKey, manager, cl.Standbys)
		if err != nil {
			return nil, fmt.Errorf("core: building HA coordinator: %w", err)
		}
		cl.HA = coord
	}

	// Key-epoch rotation (partition-level only; Validate enforces it).
	if cfg.Rekey.Enabled() {
		r, err := sm.NewRotator(s, manager, cfg.Rekey)
		if err != nil {
			return nil, fmt.Errorf("core: building key rotator: %w", err)
		}
		cl.Rotator = r
	}
	return cl, nil
}

// partitionGroups draws the random partitioning: shuffle the nodes and
// slice them into NumPartitions groups (section 3.1), one per node.
func partitionGroups(cfg *Config, rng *rand.Rand, n int) [][]int {
	groups := make([][]int, cfg.NumPartitions)
	for i, node := range rng.Perm(n) {
		g := i % cfg.NumPartitions
		groups[g] = append(groups[g], node)
	}
	return groups
}

// PairPKey returns the P_Key of the partition nodes a and b share, or 0
// when they are the same node or in different partitions.
func (cl *Cluster) PairPKey(a, b int) packet.PKey {
	if a == b || cl.PKeyOf[a] != cl.PKeyOf[b] {
		return 0
	}
	return cl.PKeyOf[a]
}

// policyDocument expresses the run's random partition grouping as a
// declarative policy document: one rule per group with every member
// full (the imperative path grants full membership too), plus the
// optional global pinned-invalid registration. Members are listed as
// sorted single-port ranges so the document — and everything compiled
// from it — is deterministic regardless of shuffle order.
func policyDocument(cfg *Config, groups [][]int) *policy.Document {
	doc := &policy.Document{Version: policy.CurrentVersion, Mode: cfg.Enforcement}
	for g, members := range groups {
		r := policy.Rule{Name: fmt.Sprintf("part-%d", g+1), Base: uint16(g + 1)}
		sorted := append([]int(nil), members...)
		sort.Ints(sorted)
		for _, m := range sorted {
			r.Full = append(r.Full, policy.PortRange{First: m, Last: m})
		}
		doc.Rules = append(doc.Rules, r)
	}
	if cfg.Policy.PinInvalid != 0 {
		doc.Pinned = []uint16{cfg.Policy.PinInvalid}
	}
	return doc
}

// attachCollectors wraps each node's delivery path with measurement: one
// collector for every HCA, keyed by the node a packet was delivered to.
func (cl *Cluster) attachCollectors() {
	collect := cl.collect
	for _, hca := range cl.Mesh.HCAs {
		hca.OnDeliver = collect
	}
}

// collect measures one delivery and hands it to the node's endpoint.
// Management traffic stays out of the statistics: what reaches here is
// what the node's management receive path did not take.
func (cl *Cluster) collect(d *fabric.Delivery) {
	switch {
	case d.Class == fabric.ClassManagement:
	case d.Attack:
		cl.res.AttackDelivered++
	case d.Pkt.BTH.OpCode.Service() == packet.ServiceUD:
		cl.res.DeliveredUD++
	}
	if sampled(d, cl.Cfg.Warmup) {
		q := d.QueuingTime().Microseconds()
		net := d.NetworkLatency().Microseconds()
		switch d.Class {
		case fabric.ClassRealtime:
			cl.res.Realtime.AddSample(q, net)
		case fabric.ClassBestEffort:
			cl.res.BestEffort.AddSample(q, net)
		}
		cl.res.DeliveredLegit++
	}
	if ep := cl.Endpoints[d.DeliveredTo]; ep != nil {
		ep.Deliver(d)
	}
}

// sampled reports whether the delivery statistics take d's latency: a
// datagram, neither management nor attack traffic, enqueued at or after
// warmup. Only datagram traffic counts toward them: RC probe flows
// (fault experiments) measure their own delivery and latency, and their
// ACK stream would double-count otherwise.
func sampled(d *fabric.Delivery, warmup sim.Time) bool {
	return d.Class != fabric.ClassManagement && !d.Attack &&
		d.Pkt.BTH.OpCode.Service() == packet.ServiceUD && d.EnqueuedAt >= warmup
}

// newDiscoverer returns a fresh SMP prober sourced at node. Every plane
// (resweeper, auditor, PerfMgr) gets its own: sharing one would let the
// resweeper's per-sweep Reset cancel another plane's probes in flight.
//
// Probe deadline: an SMP round trip is a few µs, but VL15 waits behind
// at most one in-flight MTU per hop under load, so a healthy probe can
// take tens of µs; 25 µs with two retries keeps terminal dead-port
// detection under ~200 µs while making a congestion-induced false
// positive need three straight losses.
func (cl *Cluster) newDiscoverer(node int) *sm.Discoverer {
	disc := sm.NewDiscoverer(cl.Sim, cl.Mesh.HCA(node), cl.Cfg.SM.MKey, 25*sim.Microsecond)
	disc.MaxRetries = 2
	disc.SetTimeoutMult = 10
	cl.discoverers = append(cl.discoverers, disc)
	return disc
}

// armResilience wires the self-healing management plane and installs the
// fault plan: one line per plane, in the order the goldens pin (each
// start schedules its first timer, so reordering two lines moves events
// that share a tick). Every agent registers with its HCA's management
// receive path, which does not depend on when attachCollectors ran.
func (cl *Cluster) armResilience() {
	cfg := cl.Cfg
	// LID-routed MADs: with an HA coordinator it owns the routing (HA
	// MADs, traps to the active master, loss at a dead master); otherwise
	// the single SM takes its traps.
	var lidRouted sm.LIDHandler = cl.SM
	if cl.HA != nil {
		lidRouted = cl.HA
	}
	sm.SetLIDHandler(cl.Mesh.HCAs, lidRouted)
	auditing := cfg.Policy.AuditPeriod > 0
	if cfg.ResweepPeriod > 0 || cl.HA != nil || auditing || cfg.Health.Enabled() {
		// The periodic re-sweep, a promoted standby's re-verification
		// sweep, the drift auditor and the PerfMgr all need in-band agents
		// answering SMPs on every switch and HCA. The filter reference lets
		// switch agents answer enforcement-state audit attributes.
		mkey := cfg.SM.MKey
		cl.switchAgents = sm.AttachSwitchAgents(cl.Mesh, mkey)
		for _, agent := range cl.switchAgents {
			agent.Enforce = cl.Filter
			agent.DedupTIDs = cfg.HA.SplitBrain
		}
		agents := sm.AttachNodeAgents(cl.Mesh.HCAs, mkey)
		for i := range agents {
			agents[i].DedupTIDs = cfg.HA.SplitBrain
		}
	}
	if auditing {
		cl.startAuditor(cl.Policy, cl.SM)
	}
	if cfg.ResweepPeriod > 0 {
		cl.startResweeper()
	}
	if cfg.Health.Enabled() {
		cl.startPerfMgr(cl.SM)
	}
	if cl.HA != nil {
		cl.HA.OnTakeover = cl.takeover
		if cfg.HA.SplitBrain {
			cl.wireSplitBrain()
		}
		cl.HA.Start()
	}
	if cl.Rotator != nil {
		cl.Rotator.Start()
	}
	if cfg.FaultPlan != nil {
		cl.installFaultPlan()
	}
}

// takeover hands the promoted standby every master duty that outlives a
// kill, each plane from the state HA sync left on newMaster. The order
// differs from bring-up's because the goldens pin this one too; the
// resweeper is the dead master's own loop and is not restarted, and
// congestion control, programmed in Build at bring-up, is re-programmed
// here.
func (cl *Cluster) takeover(newMaster *sm.SubnetManager) {
	if cl.Rotator != nil {
		// Rotation rebinds to the new master's membership view.
		cl.Rotator.Rebind(newMaster)
		cl.Rotator.Start()
	}
	cl.inheritPolicy(newMaster)
	cl.inheritCongestion(newMaster)
	if cl.PerfMgr != nil {
		cl.startPerfMgr(newMaster)
	}
}

// rejectSyncState drops state a promoted master inherited under magic
// and its plane's parser refused, and counts it on the coordinator: the
// plane starts without inherited state. The master encodes its own
// blobs, so only a forged state-sync MAD gets here — hostile input,
// which is counted, never a panic.
func (cl *Cluster) rejectSyncState(m *sm.SubnetManager, magic string) {
	m.SetSyncState(magic, nil)
	cl.HA.Counters.Add(sm.HASyncStateRejected, 1)
}

// stopMasterDuties stops the control loops that run beside the master
// SM: when an SMKill takes them down with it, and when the run ends.
func (cl *Cluster) stopMasterDuties() {
	if cl.Resweeper != nil {
		cl.Resweeper.Stop()
	}
	if cl.Rotator != nil {
		cl.Rotator.Stop()
	}
	if cl.Auditor != nil {
		cl.Auditor.Stop()
	}
	if cl.PerfMgr != nil {
		cl.PerfMgr.Stop()
	}
}

// Simulate runs the configured workload and returns results.
func (cl *Cluster) Simulate() *Results {
	cl.attachCollectors()
	cl.armResilience()
	return cl.run()
}

// run drives the workload over the wired cluster and collects the
// results.
func (cl *Cluster) run() *Results {
	cfg := cl.Cfg

	n := cl.Mesh.NumNodes()
	tr := cl.newTraffic()
	var attackers []*workload.Attacker
	for node := 0; node < n; node++ {
		if !cl.AttackSet[node] {
			tr.start(cl, node)
			continue
		}
		sender := &workload.RawUDSender{
			HCA:   cl.Mesh.HCA(node),
			Class: cfg.AttackClass,
			LIDOf: topology.LIDOf,
		}
		targets := allExcept(n, node)
		fixedPKey := cfg.AttackPKey
		if cfg.AttackIncast {
			// Stolen-key incast: flood the lowest-index legitimate
			// co-member of the attacker's own primary partition with that
			// partition's key. Valid at every enforcement hop, so the
			// single hot destination link builds the congestion tree the
			// CC annex is measured against.
			fixedPKey = cl.PKeyOf[node]
			for _, peer := range allExcept(n, node) {
				if !cl.AttackSet[peer] && cl.PKeyOf[peer] == fixedPKey {
					targets = []int{peer}
					break
				}
			}
		}
		atk := workload.StartAttacker(
			cl.Sim, cl.Rng, sender, targets, cfg.MsgSize, cfg.AttackDuty, cfg.AttackCycle)
		atk.FixedPKey = fixedPKey
		atk.Rate = cfg.AttackRate
		attackers = append(attackers, atk)
	}

	cl.Sim.RunUntil(cfg.Duration)

	for i := range tr.gens {
		g := &tr.gens[i]
		g.Stop()
		cl.res.SentLegit += g.Sent
		cl.res.WithheldRT += g.Withheld
	}
	for _, a := range attackers {
		a.Stop()
	}
	cl.SM.Stop()
	for _, sb := range cl.Standbys {
		sb.Stop()
	}
	if cl.HA != nil {
		cl.HA.Stop()
	}
	cl.stopMasterDuties()
	for _, rot := range cl.IslandRotators {
		rot.Stop()
	}
	cl.collectHealth()
	cl.collectDrift()

	for _, hca := range cl.Mesh.HCAs {
		cl.res.HCAViolations += hca.PKeyViolations()
	}
	if cl.Filter != nil {
		cl.res.FilterLookups = cl.Filter.Lookups
		cl.res.FilterDropped = cl.Filter.Dropped
		cl.res.FilterActivations = cl.Filter.Activations
	}
	cl.res.TrapsSent = cl.SM.Counters.Value(sm.SMTrapsSent)
	cl.res.SIFRegistrations = cl.SM.Counters.Value(sm.SMSIFRegistrations)
	for _, sb := range cl.Standbys {
		cl.res.TrapsSent += sb.Counters.Value(sm.SMTrapsSent)
		cl.res.SIFRegistrations += sb.Counters.Value(sm.SMSIFRegistrations)
	}
	for _, ep := range cl.Endpoints {
		if ep != nil {
			cl.res.KeyExchanges += ep.Counters.Value(transport.EpQKeyEstablished)
			cl.res.PacketsSigned += ep.Counters.Value(transport.EpPacketsSigned)
			cl.res.AuthOK += ep.Counters.Value(transport.EpAuthOK)
			cl.res.AuthFail += ep.Counters.Value(transport.EpAuthFail)
		}
	}

	// Congestion accounting: fabric-wide sums.
	for _, sw := range cl.Mesh.Switches {
		cl.res.CreditStallNs += uint64(sw.CreditStallTime() / sim.Nanosecond)
		cl.res.FECNMarked += sw.FECNMarkedTotal()
	}
	for node, hca := range cl.Mesh.HCAs {
		cl.res.CreditStallNs += uint64(hca.CreditStallTime() / sim.Nanosecond)
		cl.res.CNPsSent += hca.Counters.Value(fabric.HCACNPSent)
		cl.res.BECNsNotified += hca.Counters.Value(fabric.HCABECNNotified)
		cl.res.CCTThrottled += hca.Counters.Value(fabric.HCACCTThrottled)
		if cl.AttackSet[node] {
			if idx := hca.CCTIndex(); idx > cl.res.AttackerCCT {
				cl.res.AttackerCCT = idx
			}
		}
	}
	if cfg.Congestion.Enabled() {
		cl.res.CongestionSpan = cl.SM.CongestionTreeSpan()
	}

	// Link utilization over the whole run.
	var sum float64
	links := 0
	addLink := func(busy sim.Time) {
		u := float64(busy) / float64(cfg.Duration)
		sum += u
		if u > cl.res.MaxLinkUtil {
			cl.res.MaxLinkUtil = u
		}
		links++
	}
	for _, sw := range cl.Mesh.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			if sw.PortConnected(p) {
				_, busy := sw.PortStats(p)
				addLink(busy)
			}
		}
	}
	for _, hca := range cl.Mesh.HCAs {
		_, busy := hca.PortStats()
		addLink(busy)
	}
	if links > 0 {
		cl.res.MeanLinkUtil = sum / float64(links)
	}
	return cl.res
}

// traffic is a run's legitimate sources, one slab per kind sized by a
// counting pass before the first starts: each sending node's targets, the
// senders its two classes go out through — raw HCA injection without
// authentication, transport-layer sends with it — and its generators.
// Each slab is filled in node order to exactly its length, so nothing a
// started source points at ever moves.
type traffic struct {
	targets []int                  // unclaimed target slots
	gens    []workload.Generator   // started sources (len) and room for the rest (cap)
	raw     []workload.RawUDSender // unclaimed raw senders, two per sending node
	signed  []signedSender         // unclaimed signed senders, two per sending node
	// qkeys is the QP-level Q_Key table: row a, column b holds the Q_Key
	// a's exchange with b delivered, 0 while it is in flight.
	qkeys []packet.QKey
}

// newTraffic counts the run's sending nodes and their targets — every
// non-attacker with a non-attacker partner — and makes the slabs.
func (cl *Cluster) newTraffic() *traffic {
	cfg := cl.Cfg
	n := cl.Mesh.NumNodes()
	nodes, targets := 0, 0
	for node := 0; node < n; node++ {
		if k := cl.numTargets(node); k > 0 {
			nodes++
			targets += k
		}
	}
	perNode := 0
	for _, load := range []float64{cfg.RealtimeLoad, cfg.BestEffortLoad} {
		if load > 0 {
			perNode++
		}
	}
	tr := &traffic{
		targets: make([]int, targets),
		gens:    make([]workload.Generator, 0, nodes*perNode),
	}
	switch {
	case !cfg.Auth.Enabled:
		tr.raw = make([]workload.RawUDSender, 2*nodes)
	default:
		tr.signed = make([]signedSender, 2*nodes)
		if cfg.Auth.Level == transport.QPLevel {
			tr.qkeys = make([]packet.QKey, n*n)
		}
	}
	return tr
}

// numTargets counts node's legitimate targets: none for an attacker, else
// its partners less the attackers. Attackers send no legitimate traffic
// and never reply, but they can still be receive targets; the paper keeps
// them as pure sources, so only non-attackers are targeted.
func (cl *Cluster) numTargets(node int) int {
	if cl.AttackSet[node] {
		return 0
	}
	k := 0
	for _, p := range cl.Partners[node] {
		if !cl.AttackSet[p] {
			k++
		}
	}
	return k
}

// start starts node's legitimate sources, if it has targets.
func (tr *traffic) start(cl *Cluster, node int) {
	k := cl.numTargets(node)
	if k == 0 {
		return
	}
	targets := tr.targets[:0:k]
	tr.targets = tr.targets[k:]
	for _, p := range cl.Partners[node] {
		if !cl.AttackSet[p] {
			targets = append(targets, p)
		}
	}
	rt, be := tr.senders(cl, node, targets)
	cfg := cl.Cfg
	bw := cfg.Params.LinkBandwidth
	if cfg.RealtimeLoad > 0 {
		tr.gens = tr.gens[:len(tr.gens)+1]
		admit := (*realtimeAdmit)(cl.Mesh.HCA(node))
		tr.gens[len(tr.gens)-1].StartRealtime(cl.Sim, cl.Rng, cfg.RealtimeLoad*bw, cfg.MsgSize, targets, admit, rt)
	}
	if cfg.BestEffortLoad > 0 {
		tr.gens = tr.gens[:len(tr.gens)+1]
		tr.gens[len(tr.gens)-1].StartBestEffort(cl.Sim, cl.Rng, cfg.BestEffortLoad*bw, cfg.MsgSize, targets, be)
	}
}

// senders claims node's senders for the two classes: raw HCA injection
// without authentication, transport-layer sends with it.
func (tr *traffic) senders(cl *Cluster, node int, targets []int) (rt, be workload.Sender) {
	cfg := cl.Cfg
	if !cfg.Auth.Enabled {
		pair := tr.raw[:2]
		tr.raw = tr.raw[2:]
		for i, class := range []fabric.Class{fabric.ClassRealtime, fabric.ClassBestEffort} {
			pair[i] = workload.RawUDSender{
				HCA:   cl.Mesh.HCA(node),
				Class: class,
				PKey:  cl.PKeyOf[node],
				LIDOf: topology.LIDOf,
			}
		}
		return &pair[0], &pair[1]
	}

	// Authenticated path: one UD QP per node; peers' QP numbers are the
	// first allocated (2) on every endpoint; Q_Keys are deterministic.
	ep := cl.Endpoints[node]
	qp := ep.CreateUDQP(cl.PKeyOf[node], serviceQKey(node))
	qp.AuthRequired = true
	var qkeys []packet.QKey
	if tr.qkeys != nil {
		// One key-exchange round trip per destination before traffic
		// flows (Figure 6's "With Key" overhead). Partition-level
		// secrets and Q_Keys are pre-distributed by the SM instead; no
		// exchange is needed (the paper: "Key distribution overhead is
		// virtually zero").
		n := cl.Mesh.NumNodes()
		row := tr.qkeys[node*n : (node+1)*n]
		qkeys = row
		for _, dst := range targets {
			err := ep.RequestQKey(qp, topology.LIDOf(dst), serviceQPN, func(qk packet.QKey, err error) {
				if err == nil {
					row[dst] = qk
				}
			})
			if err != nil {
				panic(err)
			}
		}
	}
	pair := tr.signed[:2]
	tr.signed = tr.signed[2:]
	for i, class := range []fabric.Class{fabric.ClassRealtime, fabric.ClassBestEffort} {
		pair[i] = signedSender{ep: ep, qp: qp, class: class, qkeys: qkeys}
	}
	return &pair[0], &pair[1]
}

// signedSender sends one class of a node's traffic on its service QP.
type signedSender struct {
	ep    *transport.Endpoint
	qp    *transport.QP
	class fabric.Class
	// qkeys is the node's row of the QP-level Q_Key table, nil at
	// partition level, where a destination's Q_Key is known.
	qkeys []packet.QKey
}

// Send implements workload.Sender.
func (s *signedSender) Send(dst, size int) {
	qk := serviceQKey(dst)
	if s.qkeys != nil {
		if qk = s.qkeys[dst]; qk == 0 {
			return // key exchange still in flight
		}
	}
	if err := s.ep.SendUD(s.qp, topology.LIDOf(dst), serviceQPN, qk, zeroPayload[:size], s.class); err != nil {
		panic(fmt.Sprintf("core: node %d send: %v", s.ep.HCA().Node(), err))
	}
}

// realtimeAdmit is a realtime source's admission check on its HCA: the
// paper's realtime applications send only while the network keeps up.
type realtimeAdmit fabric.HCA

// Admit implements workload.Admitter.
func (h *realtimeAdmit) Admit() bool {
	return (*fabric.HCA)(h).SendQueueLen(fabric.VLRealtime) < realtimeMaxQueue
}

// zeroPayload is the message body every generated send carries. SendUD
// copies it into the packet's image, so one read-only block serves all.
var zeroPayload [packet.MTU]byte

// serviceQPN is the QP number of each node's service QP: endpoints
// allocate from 2 and the service QP is created first.
const serviceQPN = packet.QPN(2)

// serviceQKey is the deterministic Q_Key of a node's service QP.
func serviceQKey(node int) packet.QKey { return packet.QKey(0x1000 + uint32(node)) }

func allExcept(n, skip int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}
