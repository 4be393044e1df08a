// Package sm implements the Subnet Manager: partition administration,
// P_Key-violation trap handling, and the SIF control loop of the paper's
// section 3.3 — on a trap, the SM identifies the offending node, locates
// its ingress switch, registers the invalid P_Key in that switch's
// Invalid_P_Key_Table and enables its filtering function.
//
// Traps are real management-class packets that traverse the simulated
// fabric on VL 15, so the paper's observation that "SIF allows a DoS
// attack in the IBA network for a subnet manager to register the invalid
// P_Key" (section 6) emerges naturally from trap transit plus SM
// processing time.
package sm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// Trap payload layout (a simplified MAD): type byte, offender LID,
// offending P_Key.
const (
	trapTypePKeyViolation = 1
	trapPayloadSize       = 5
)

// Config holds SM tuning knobs.
type Config struct {
	// Node is the mesh node index the SM runs on.
	Node int
	// MKey guards configuration operations (IBA 14.2.4).
	MKey keys.MKey
	// AutoDisablePeriod is how often SIF switches check their Ingress
	// P_Key Violation Counter to self-disable. Zero disables the timer
	// (callers manage it themselves).
	AutoDisablePeriod sim.Time
}

// SM trap-handling timing.
const (
	// processingDelay is the SM's per-trap handling time (parse, locate
	// switch, build the config MAD).
	processingDelay = 2 * sim.Microsecond
	// registrationDelay is the additional time for the configuration MAD
	// to reach the ingress switch and take effect.
	registrationDelay = 2 * sim.Microsecond
	// trapInterval rate-limits identical traps from one victim: a second
	// trap for the same (offender, P_Key) is suppressed within the
	// interval.
	trapInterval = 50 * sim.Microsecond
)

// DefaultConfig returns production-like defaults.
func DefaultConfig() Config {
	return Config{
		Node:              0,
		MKey:              0x5EC0DE0FDEADBEEF,
		AutoDisablePeriod: 500 * sim.Microsecond,
	}
}

// SubnetManager administers partitions and drives SIF.
type SubnetManager struct {
	cfg    Config
	sim    *sim.Simulator
	mesh   *topology.Mesh
	filter *enforce.Filter // nil unless SIF (or tests)

	// Authority is non-nil when partition-level key management is on:
	// partition secrets are generated and distributed at partition
	// creation (paper section 4.2).
	Authority *keys.PartitionAuthority
	// InstallSecret delivers an epoch-tagged partition secret to a member
	// node's key store; wired by the core layer.
	InstallSecret func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32)
	// RetireSecret closes a member node's grace window for the given
	// epoch (rotation's final step); wired by the core layer.
	RetireSecret func(node int, pk packet.PKey, epoch uint32)
	// WipeSecrets destroys every secret an evicted node holds for the
	// partition — its copy of the partition secret and all QP-level
	// send/recv secrets — so rotation can never resurrect stale
	// credentials; wired by the core layer.
	WipeSecrets func(node int, pk packet.PKey)

	// syncState holds each plane's opaque HA-synced state, filed under
	// the four-byte magic that opens it, in first-set order (SyncState,
	// SetSyncState in ha.go). The coordinator appends the non-empty ones
	// to every state-sync MAD so a promoted standby inherits them.
	syncState []syncEntry
	// ProgramTables, when non-nil, replaces ProgramSwitchTables'
	// built-in membership-derived programming with compiled-intent
	// programming — wired by the core layer when the policy plane is
	// enabled, so a post-failover reprogram restores intent rather than
	// re-deriving tables from membership.
	ProgramTables func()

	// partitions holds every partition's membership, ascending by base:
	// the order rotation, table programming and HA state sync walk.
	partitions []partition
	// island, when non-nil, scopes every fabric-touching duty to the
	// listed nodes — a partitioned master's reachable side. Programming,
	// trap attachment and key distribution skip non-members entirely:
	// unreachable hardware cannot be written, and pretending otherwise
	// would teleport state across the cut. Nil means the whole fabric.
	island    map[int]bool
	busyUntil sim.Time
	traps     *trapState // made at the first trap
	// onTrap is sendTrap as one func value, the handler AttachTraps
	// gives every HCA; made at its first call.
	onTrap    func(victim int, d *fabric.Delivery)
	stopTimer func()

	Counters metrics.Set[SMCounter]
	ctr      [numSMCounters]uint64 // Counters' cells
	// RegLatency tracks microseconds from trap arrival at the SM to the
	// switch registration taking effect — the quantity degraded by the
	// section-7 management-DoS attack (flooding the SM with MADs).
	RegLatency metrics.Welford
}

// partition is one partition's membership: its base P_Key and its
// member nodes.
type partition struct {
	base    uint16
	members []int
}

type trapKey struct {
	offender packet.LID
	pkey     uint16
}

// trapState is the SM's trap bookkeeping. seen and old remember when each
// (offender, P_Key) trap was last sent, in two generations: seen the
// sends since seenAt, old the generation before. A generation older than
// trapInterval can no longer suppress a trap, so sendTrap clears and
// reuses it rather than grow one table for the whole run. free holds the
// records of finished traps (trapWork) for reuse.
type trapState struct {
	seen, old map[trapKey]sim.Time
	seenAt    sim.Time
	free      []*trapWork
}

// trapState returns the SM's trap bookkeeping, making it at first use.
func (m *SubnetManager) trapState() *trapState {
	if m.traps == nil {
		m.traps = &trapState{seen: make(map[trapKey]sim.Time), old: make(map[trapKey]sim.Time)}
	}
	return m.traps
}

// New creates a Subnet Manager for the mesh. filter may be nil when no
// switch enforcement is in use.
func New(s *sim.Simulator, mesh *topology.Mesh, filter *enforce.Filter, cfg Config) *SubnetManager {
	m := NewStandby(s, mesh, filter, cfg)
	m.ResumeTimers()
	return m
}

// NewStandby creates an SM with every periodic duty parked: identical to
// New except the SIF auto-disable timer does not start until the SM is
// promoted to master (ResumeTimers). HA standbys are built this way so N
// instances never run N duplicate timers.
func NewStandby(s *sim.Simulator, mesh *topology.Mesh, filter *enforce.Filter, cfg Config) *SubnetManager {
	m := &SubnetManager{cfg: cfg, sim: s, mesh: mesh, filter: filter}
	m.Counters.Bind(&smCounters, m.ctr[:])
	return m
}

// ResumeTimers starts the SM's periodic duties (the SIF auto-disable
// check) if they are not already running — called on the initial master
// at construction and on a standby at promotion. Idempotent.
func (m *SubnetManager) ResumeTimers() {
	if m.stopTimer == nil && m.filter != nil && m.filter.Mode() == enforce.SIF && m.cfg.AutoDisablePeriod > 0 {
		m.stopTimer = m.filter.StartAutoDisable(m.sim, m.cfg.AutoDisablePeriod)
	}
}

// Node returns the mesh node index the SM runs on.
func (m *SubnetManager) Node() int { return m.cfg.Node }

// Stop cancels the SM's periodic timers so a simulation can drain.
func (m *SubnetManager) Stop() {
	if m.stopTimer != nil {
		m.stopTimer()
		m.stopTimer = nil
	}
}

// CheckMKey validates a management key for configuration operations.
func (m *SubnetManager) CheckMKey(k keys.MKey) error {
	if k != m.cfg.MKey {
		m.Counters.Add(SMMKeyViolations, 1)
		return fmt.Errorf("sm: M_Key mismatch")
	}
	return nil
}

// CreatePartition registers a partition and programs the member HCAs'
// partition tables. With an Authority present it also generates the
// partition secret and pushes it to every member through InstallSecret
// (sealed distribution is exercised in the keys package; the simulator
// shortcut here keeps setup out of the measured window, matching the
// paper: "Key distribution overhead is virtually zero because the SM
// distributes P_Keys and their secret keys first").
func (m *SubnetManager) CreatePartition(mkey keys.MKey, pk packet.PKey, members []int) error {
	if err := m.CheckMKey(mkey); err != nil {
		return err
	}
	for _, n := range members {
		if n < 0 || n >= m.mesh.NumNodes() {
			return fmt.Errorf("sm: member %d out of range", n)
		}
	}
	i, ok := m.find(pk.Base())
	if !ok {
		m.partitions = slices.Insert(m.partitions, i, partition{base: pk.Base()})
	}
	m.partitions[i].members = append([]int(nil), members...)
	var secret keys.SecretKey
	haveSecret := false
	if m.Authority != nil {
		k, err := m.Authority.EnsureSecret(pk)
		if err != nil {
			return err
		}
		secret, haveSecret = k, true
	}
	for _, n := range members {
		if err := m.mesh.HCA(n).PKeyTable.Add(pk); err != nil {
			return err
		}
		if haveSecret && m.InstallSecret != nil {
			m.InstallSecret(n, pk, secret, m.Authority.Epoch(pk))
		}
	}
	m.Counters.Add(SMPartitionsCreated, 1)
	return nil
}

// find binary-searches the partition table for base: its index, or
// where it would be inserted.
func (m *SubnetManager) find(base uint16) (int, bool) {
	return slices.BinarySearchFunc(m.partitions, base, func(p partition, b uint16) int { return cmp.Compare(p.base, b) })
}

// members returns the nodes in pk's partition (the table's own slice).
func (m *SubnetManager) members(pk packet.PKey) []int {
	if i, ok := m.find(pk.Base()); ok {
		return m.partitions[i].members
	}
	return nil
}

// Members returns a copy of the nodes in pk's partition.
func (m *SubnetManager) Members(pk packet.PKey) []int {
	return append([]int(nil), m.members(pk)...)
}

// RemoveFromPartition evicts a node: its HCA loses the P_Key and, when
// partition-level key management is active, the partition secret is
// rotated and redistributed to the remaining members so the evicted node
// cannot keep authenticating with the old secret (the revocation step
// the paper's section 4.2 scheme implies but does not spell out).
func (m *SubnetManager) RemoveFromPartition(mkey keys.MKey, pk packet.PKey, node int) error {
	if err := m.CheckMKey(mkey); err != nil {
		return err
	}
	i, ok := m.find(pk.Base())
	idx := -1
	if ok {
		idx = slices.Index(m.partitions[i].members, node)
	}
	if idx < 0 {
		return fmt.Errorf("sm: node %d not in partition %#x", node, pk.Base())
	}
	p := &m.partitions[i]
	p.members = slices.Delete(p.members, idx, idx+1)
	m.mesh.HCA(node).PKeyTable.Remove(pk)
	m.Counters.Add(SMMembersRemoved, 1)

	// Destroy everything the evicted node holds before rotating: its copy
	// of the partition secret and its QP-level send/recv secrets, which
	// the rotation below would otherwise leave behind as live stale
	// credentials.
	if m.WipeSecrets != nil {
		m.WipeSecrets(node, pk)
		m.Counters.Add(SMSecretsWiped, 1)
	}

	if m.Authority != nil {
		fresh, epoch, err := m.Authority.RotateEpoch(pk)
		if err != nil {
			return err
		}
		if m.InstallSecret != nil {
			for _, n := range m.members(pk) {
				m.InstallSecret(n, pk, fresh, epoch)
			}
		}
		m.Counters.Add(SMSecretsRotated, 1)
	}
	return nil
}

// PartitionBases returns the base P_Key values of all partitions in
// ascending order — the deterministic iteration order rotation needs.
func (m *SubnetManager) PartitionBases() []uint16 {
	bases := make([]uint16, len(m.partitions))
	for i, p := range m.partitions {
		bases[i] = p.base
	}
	return bases
}

// adoptSync replaces the SM's partition membership with a validated
// state sync's, in place — the standby side of HA state sync, reusing
// the member slices the table already has. It does not touch HCA tables
// or secrets: the master already programmed those, the standby only
// needs the bookkeeping to act on after election.
func (m *SubnetManager) adoptSync(parts []syncPartition) {
	m.partitions = slices.Grow(m.partitions[:0], len(parts))[:len(parts)]
	for i, sp := range parts {
		p := &m.partitions[i]
		p.base, p.members = sp.Base, p.members[:0]
		for k := 0; k < len(sp.Members); k += 2 {
			p.members = append(p.members, int(binary.BigEndian.Uint16(sp.Members[k:])))
		}
	}
}

// SetIsland scopes the SM to the given fabric island (a partitioned
// master's reachable nodes); nil restores full-fabric scope.
func (m *SubnetManager) SetIsland(nodes []int) {
	if nodes == nil {
		m.island = nil
		return
	}
	m.island = make(map[int]bool, len(nodes))
	for _, n := range nodes {
		m.island[n] = true
	}
}

// InIsland reports whether the SM currently serves the given node.
func (m *SubnetManager) InIsland(node int) bool {
	return m.island == nil || m.island[node]
}

// appendIslandMembers appends to dst pk's members restricted to the
// island scope — all of them when the SM is unscoped. Key rotation
// distributes through this so a contained master mints island-local
// epochs without reaching across the cut.
func (m *SubnetManager) appendIslandMembers(dst []int, pk packet.PKey) []int {
	for _, n := range m.members(pk) {
		if m.InIsland(n) {
			dst = append(dst, n)
		}
	}
	return dst
}

// ProgramSwitchTables installs the per-switch valid-P_Key tables the
// filter needs: for DPT every switch gets the union of all partitions;
// for IF/SIF each switch gets the partitions of its attached node.
// Under an island scope only member switches are written.
func (m *SubnetManager) ProgramSwitchTables() {
	if m.ProgramTables != nil {
		m.ProgramTables()
		return
	}
	if m.filter == nil {
		return
	}
	switch m.filter.Mode() {
	case enforce.DPT:
		global := keys.NewPartitionTable(0)
		memberships := 0 // Table 2's n×p: one entry per (node, partition)
		for _, p := range m.partitions {
			memberships += len(p.members)
			if err := global.Add(packet.PKey(0x8000 | p.base)); err != nil {
				panic(err)
			}
		}
		for i, sw := range m.mesh.Switches {
			if !m.InIsland(i) {
				continue
			}
			m.filter.SetSwitchTable(sw, global, memberships)
		}
	case enforce.IF, enforce.SIF:
		// One table per node, each with room for a node in every
		// partition (up to eight) in one slab.
		tables := keys.NewPartitionTables(len(m.mesh.HCAs), min(len(m.partitions), 8))
		for i := range m.mesh.HCAs {
			if !m.InIsland(i) {
				continue
			}
			tbl := &tables[i]
			for _, p := range m.partitions {
				if slices.Contains(p.members, i) {
					if err := tbl.Add(packet.PKey(0x8000 | p.base)); err != nil {
						panic(err)
					}
				}
			}
			// Table 2's p: the attached node's own partition count.
			m.filter.SetSwitchTable(m.mesh.SwitchOf(i), tbl, tbl.Len())
		}
	}
}

// AttachTraps hooks every HCA's P_Key-violation callback to send a trap
// MAD to the SM over the fabric's management VL. Every HCA gets the same
// handler, which the HCA calls with its node index, so re-attaching after
// a takeover allocates nothing. Under an island scope only member HCAs
// are re-routed — the other side keeps whatever trap destination its own
// master last imposed.
func (m *SubnetManager) AttachTraps() {
	if m.onTrap == nil {
		m.onTrap = m.sendTrap
	}
	for i, hca := range m.mesh.HCAs {
		if m.InIsland(i) {
			hca.OnPKeyViolation = m.onTrap
		}
	}
}

// sendTrap emits (or suppresses) a trap for a violation observed at node
// victim.
func (m *SubnetManager) sendTrap(victim int, d *fabric.Delivery) {
	k := trapKey{offender: d.Pkt.LRH.SLID, pkey: uint16(d.Pkt.BTH.PKey)}
	now := m.sim.Now()
	ts := m.trapState()
	if now-ts.seenAt >= trapInterval {
		ts.seen, ts.old = ts.old, ts.seen
		clear(ts.seen)
		ts.seenAt = now
	}
	last, ok := ts.seen[k]
	if !ok {
		last, ok = ts.old[k]
	}
	if ok && now-last < trapInterval {
		m.Counters.Add(SMTrapsSuppressed, 1)
		return
	}
	ts.seen[k] = now
	m.Counters.Add(SMTrapsSent, 1)

	tr := trapMAD{Offender: d.Pkt.LRH.SLID, PKey: d.Pkt.BTH.PKey}
	if victim == m.cfg.Node {
		// Local violation: no fabric transit.
		m.sim.ScheduleCall(0, (*trapProcess)(m), m.newTrapWork(tr, now), 0)
		return
	}
	var payload [trapPayloadSize]byte
	putTrap(payload[:], tr)
	victimHCA := m.mesh.HCA(victim)
	trap := victimHCA.Params().NewMAD(victimHCA.LID(), topology.LIDOf(m.cfg.Node), payload[:])
	trap.Source = victimHCA.Name()
	victimHCA.Send(trap)
}

// Dispatch implements LIDHandler: a lone SM takes the traps arriving at
// any node.
func (m *SubnetManager) Dispatch(_ int, d *fabric.Delivery) bool { return m.HandleManagement(d) }

// HandleManagement processes a management packet addressed to the SM
// (DestQP 0). It returns true if the packet was consumed. The core layer
// calls this from the SM node's delivery dispatch.
func (m *SubnetManager) HandleManagement(d *fabric.Delivery) bool {
	if d.Pkt.BTH.DestQP != 0 {
		return false
	}
	tr, err := parseTrap(d.Pkt.Payload)
	if err != nil {
		return false
	}
	m.Counters.Add(SMTrapsReceived, 1)
	// The SM is a serial processor: a flood of management packets
	// queues up (the management-DoS vector of section 7).
	arrived := m.sim.Now()
	start := arrived
	if m.busyUntil > start {
		start = m.busyUntil
	}
	m.busyUntil = start + processingDelay
	m.sim.ScheduleCall(m.busyUntil-arrived, (*trapProcess)(m), m.newTrapWork(tr, arrived), 0)
	return true
}

// trapWork is one trap in flight through the SM: what it reports, when
// it reached the SM (for registration-latency accounting) and, once
// processed, the offender's ingress switch. The records are pooled, so
// a trap allocates nothing once as many are in flight as ever were.
type trapWork struct {
	tr      trapMAD
	arrived sim.Time
	sw      *fabric.Switch
}

func (m *SubnetManager) newTrapWork(tr trapMAD, arrived sim.Time) *trapWork {
	ts := m.trapState()
	var w *trapWork
	if n := len(ts.free); n > 0 {
		w, ts.free = ts.free[n-1], ts.free[:n-1]
	} else {
		w = new(trapWork)
	}
	*w = trapWork{tr: tr, arrived: arrived}
	return w
}

// doneTrap returns a finished trap's record for reuse.
func (m *SubnetManager) doneTrap(w *trapWork) { m.traps.free = append(m.traps.free, w) }

// trapProcess and trapRegister are a trap's two events at the SM: named
// handler types over SubnetManager (see sim.Handler) whose operand is
// the trap's record.
type (
	trapProcess  SubnetManager
	trapRegister SubnetManager
)

// Fire applies the SIF registration after the configuration MAD reaches
// the offender's ingress switch.
func (h *trapProcess) Fire(arg any, _ uint64) {
	m, w := (*SubnetManager)(h), arg.(*trapWork)
	node := m.mesh.NodeByLID(w.tr.Offender)
	if node < 0 {
		m.Counters.Add(SMTrapsUnlocatable, 1)
		m.doneTrap(w)
		return
	}
	if m.filter == nil || m.filter.Mode() != enforce.SIF {
		m.doneTrap(w)
		return
	}
	w.sw = m.mesh.SwitchOf(node)
	m.sim.ScheduleCall(registrationDelay, (*trapRegister)(m), w, 0)
}

func (h *trapRegister) Fire(arg any, _ uint64) {
	m, w := (*SubnetManager)(h), arg.(*trapWork)
	m.filter.RegisterInvalid(w.sw, w.tr.PKey)
	m.Counters.Add(SMSIFRegistrations, 1)
	m.RegLatency.Add((m.sim.Now() - w.arrived).Microseconds())
	m.doneTrap(w)
}

// DistributeEnvelopes exercises the full sealed distribution path for a
// partition: for each member it produces an envelope encrypted to that
// node's public key (paper section 4.2). Returns node->envelope.
func (m *SubnetManager) DistributeEnvelopes(pk packet.PKey, dir *keys.Directory, rng io.Reader, names func(int) string) (map[int]keys.Envelope, error) {
	if m.Authority == nil {
		return nil, fmt.Errorf("sm: no partition authority configured")
	}
	out := make(map[int]keys.Envelope)
	for _, n := range m.members(pk) {
		env, _, err := m.Authority.EnvelopeForEpoch(pk, names(n))
		if err != nil {
			return nil, err
		}
		out[n] = env
	}
	return out, nil
}
