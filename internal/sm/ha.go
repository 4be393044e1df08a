package sm

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// HA MAD payload types, continuing the trap numbering (type 1). All ride
// VL 15 as management-class UD packets to DestQP 0, so a switch's MAD
// tap drops or delays them exactly as it does traps.
const (
	haTypeHeartbeat  = 2
	haTypeStateSync  = 3
	haTypeCensusPing = 4
	haTypeCensusPong = 5

	heartbeatPayloadSize = 11 // type, master node, seq, digest tail
	censusPayloadSize    = 7  // type, node, round id
)

// Parse errors for HA MADs — sentinels, like the trap/SMP ones, so
// rejecting hostile input allocates nothing.
var (
	errHAShort = fmt.Errorf("sm: truncated HA MAD")
	errHAType  = fmt.Errorf("sm: unknown HA MAD type")
)

// heartbeatMAD is the master's liveness beacon.
type heartbeatMAD struct {
	Master uint16 // mesh node index of the sender
	Seq    uint32
	Digest uint32 // the last state sync's DirDigest; no receiver checks it
}

// appendHeartbeat appends h's wire image to dst.
func appendHeartbeat(dst []byte, h heartbeatMAD) []byte {
	dst = append(dst, haTypeHeartbeat)
	dst = binary.BigEndian.AppendUint16(dst, h.Master)
	dst = binary.BigEndian.AppendUint32(dst, h.Seq)
	return binary.BigEndian.AppendUint32(dst, h.Digest)
}

func parseHeartbeat(pl []byte) (heartbeatMAD, error) {
	if len(pl) < heartbeatPayloadSize {
		return heartbeatMAD{}, errHAShort
	}
	if pl[0] != haTypeHeartbeat {
		return heartbeatMAD{}, errHAType
	}
	return heartbeatMAD{
		Master: binary.BigEndian.Uint16(pl[1:3]),
		Seq:    binary.BigEndian.Uint32(pl[3:7]),
		Digest: binary.BigEndian.Uint32(pl[7:11]),
	}, nil
}

// stateSyncMAD carries the master's partition state to a standby:
// membership plus the current key epoch per partition, and DirDigest,
// the FNV-1a over those partitions (fnv1a32) that the heartbeat carries
// too. A parsed one is made of windows into the payload it was parsed
// from, valid as long as that payload is.
type stateSyncMAD struct {
	Master     uint16
	DirDigest  uint32
	Partitions []syncPartition
	// Blobs are the master's opaque per-plane states, each carried as
	// an optional length-prefixed trailer so a promoted standby inherits
	// them, in the order the master's planes first set them. A plane that
	// is off contributes none, so with every plane off the encoding is
	// byte-identical to the pre-policy format. The receiver files each
	// under the magic that opens it, not by position (adoptSyncState).
	Blobs [][]byte
}

type syncPartition struct {
	Base  uint16
	Epoch uint32
	// Members holds the member node indices as they travel: big-endian
	// 16-bit values, two bytes each.
	Members []byte
}

// appendStateSync appends m's wire image to dst: type, master(2),
// dirDigest(4), count(2), then per partition base(2), epoch(4),
// nMembers(2), members(2 each), then per blob blobLen(4) and the blob.
func appendStateSync(dst []byte, m *stateSyncMAD) []byte {
	dst = append(dst, haTypeStateSync)
	dst = binary.BigEndian.AppendUint16(dst, m.Master)
	dst = binary.BigEndian.AppendUint32(dst, m.DirDigest)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Partitions)))
	for _, p := range m.Partitions {
		dst = binary.BigEndian.AppendUint16(dst, p.Base)
		dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Members)/2))
		dst = append(dst, p.Members...)
	}
	for _, b := range m.Blobs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
		dst = append(dst, b...)
	}
	return dst
}

// syncMagicSize is the length of the magic that opens every plane's
// sync state and names it in the table.
const syncMagicSize = 4

// syncEntry is one plane's HA-synced state on a SubnetManager.
type syncEntry struct {
	magic [syncMagicSize]byte
	blob  []byte
	// adopted is the slot's own copy of the trailer a standby last
	// received (adoptSyncState), reused from sync to sync. blob points at
	// it until a plane files a blob of its own.
	adopted []byte
}

// syncSlot returns the entry filed under magic, nil when there is none.
// magic does not escape, so a caller may pass string(b[:4]) of a packet
// buffer without allocating.
func (m *SubnetManager) syncSlot(magic string) *syncEntry {
	for i := range m.syncState {
		if string(m.syncState[i].magic[:]) == magic {
			return &m.syncState[i]
		}
	}
	return nil
}

// SyncState returns the state last filed under magic, nil when none.
func (m *SubnetManager) SyncState(magic string) []byte {
	if e := m.syncSlot(magic); e != nil {
		return e.blob
	}
	return nil
}

// SetSyncState files blob under its plane's four-byte magic, on the
// master by the owning plane. Planes keep the position of their first
// set; an empty blob clears the state (the plane sends no trailer) but
// keeps the position.
// This package never interprets a blob — the plane that reads it back
// parses it, and checks the magic again. The magic is stored by value,
// so filing under one already known allocates nothing.
func (m *SubnetManager) SetSyncState(magic string, blob []byte) {
	if e := m.syncSlot(magic); e != nil {
		e.blob = blob
		return
	}
	if len(magic) != syncMagicSize {
		panic("sm: a sync-state magic is four bytes") // not formatted: magic must not escape
	}
	if len(blob) == 0 {
		return
	}
	e := syncEntry{blob: blob}
	copy(e.magic[:], magic)
	m.syncState = append(m.syncState, e)
}

// appendSyncState appends the non-empty sync states to dst in first-set
// order — the trailer list of one state-sync MAD.
func (m *SubnetManager) appendSyncState(dst [][]byte) [][]byte {
	for i := range m.syncState {
		if b := m.syncState[i].blob; len(b) > 0 {
			dst = append(dst, b)
		}
	}
	return dst
}

// adoptSyncState files a trailer a standby received under the magic that
// opens it, copied into the slot's own buffer: the trailer is a window
// into a packet, and a blob some plane filed with SetSyncState is never
// written. b holds at least the magic (parseStateSync).
func (m *SubnetManager) adoptSyncState(b []byte) {
	e := m.syncSlot(string(b[:syncMagicSize]))
	if e == nil {
		m.syncState = append(m.syncState, syncEntry{})
		e = &m.syncState[len(m.syncState)-1]
		copy(e.magic[:], b)
	}
	e.adopted = append(e.adopted[:0], b...)
	e.blob = e.adopted
}

// parseStateSync validates and decodes a state-sync payload into m,
// reusing m's lists: every member list and trailer is a window into pl.
// Every length is checked before the indexed reads so a truncated or
// hostile MAD cannot drive the decoder out of bounds.
func parseStateSync(pl []byte, m *stateSyncMAD) error {
	if len(pl) < 9 {
		return errHAShort
	}
	if pl[0] != haTypeStateSync {
		return errHAType
	}
	m.Master = binary.BigEndian.Uint16(pl[1:3])
	m.DirDigest = binary.BigEndian.Uint32(pl[3:7])
	m.Partitions, m.Blobs = m.Partitions[:0], m.Blobs[:0]
	count := int(binary.BigEndian.Uint16(pl[7:9]))
	off := 9
	for i := 0; i < count; i++ {
		if off+8 > len(pl) {
			return errHAShort
		}
		nm := int(binary.BigEndian.Uint16(pl[off+6:]))
		if off+8+2*nm > len(pl) {
			return errHAShort
		}
		m.Partitions = append(m.Partitions, syncPartition{
			Base:    binary.BigEndian.Uint16(pl[off:]),
			Epoch:   binary.BigEndian.Uint32(pl[off+2:]),
			Members: pl[off+8 : off+8+2*nm : off+8+2*nm],
		})
		off += 8 + 2*nm
	}
	// Optional length-prefixed trailers. The trailer-free pre-policy
	// encoding parses unchanged; a truncated trailer, or one too short to
	// hold the magic it is filed under, is rejected like any other short
	// field.
	for tail := pl[off:]; len(tail) > 0; {
		if len(tail) < 4 {
			return errHAShort
		}
		bn := int(binary.BigEndian.Uint32(tail))
		if bn < syncMagicSize || bn > len(tail)-4 {
			return errHAShort
		}
		m.Blobs = append(m.Blobs, tail[4:4+bn:4+bn])
		tail = tail[4+bn:]
	}
	return nil
}

// censusMAD is a reachability probe: a would-be or sitting master pings
// every fabric node and counts the pongs that make it back within the
// census window. Any node's management agent answers — reachability is a
// property of the node's SMA, not of an SM process running there — so a
// full census means the fabric is whole and silence means a cut.
type censusMAD struct {
	Node uint16 // ping: the origin node; pong: the responder
	ID   uint32 // round identifier, so stale pongs can't pollute a later census
}

// putCensus renders a census payload of the given type into
// pl[:censusPayloadSize]; parseCensus(pl) then returns cm.
func putCensus(pl []byte, typ byte, cm censusMAD) {
	pl[0] = typ
	binary.BigEndian.PutUint16(pl[1:3], cm.Node)
	binary.BigEndian.PutUint32(pl[3:7], cm.ID)
}

func parseCensus(pl []byte) (censusMAD, error) {
	if len(pl) < censusPayloadSize {
		return censusMAD{}, errHAShort
	}
	if pl[0] != haTypeCensusPing && pl[0] != haTypeCensusPong {
		return censusMAD{}, errHAType
	}
	return censusMAD{
		Node: binary.BigEndian.Uint16(pl[1:3]),
		ID:   binary.BigEndian.Uint32(pl[3:7]),
	}, nil
}

// fnv1a32 is the digest the master sends with its synced state: FNV-1a
// over each partition's base, epoch and members, big-endian.
func fnv1a32(parts []syncPartition) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
	for _, p := range parts {
		mix(byte(p.Base >> 8))
		mix(byte(p.Base))
		mix(byte(p.Epoch >> 24))
		mix(byte(p.Epoch >> 16))
		mix(byte(p.Epoch >> 8))
		mix(byte(p.Epoch))
		for _, b := range p.Members {
			mix(b)
		}
	}
	return h
}

// HAConfig configures subnet-manager high availability. The zero value
// disables it: a single SM, exactly the pre-HA behaviour.
type HAConfig struct {
	// Standbys is how many standby SM instances run, in priority order:
	// on master death the first live one wins the election. They receive
	// heartbeat + state-sync MADs from the master and elect a replacement
	// after a lease of three heartbeats' silence.
	Standbys int
	// Heartbeat is the master's beacon period (also the standbys' lease
	// check period).
	Heartbeat sim.Time
	// SplitBrain enables partition-aware mastership. A reachable-node
	// census gates every election (full reach elects normally, partial
	// reach elects a contained island master), the sitting master
	// censuses the fabric once a lease to notice a partition on its own
	// side, and when crossing heartbeats reveal two masters after a heal
	// the lower-priority one abdicates and the winner runs the merge
	// protocol. Off (the default), the coordinator behaves exactly as it
	// did before this knob existed.
	SplitBrain bool
}

// Enabled reports whether any standby runs.
func (h HAConfig) Enabled() bool { return h.Standbys > 0 }

// Validate reports configuration errors. HA may start beating as late
// as start (a run's end), and a heartbeat whose first beat from there
// would pass sim.MaxTime is refused.
func (h HAConfig) Validate(start sim.Time) error {
	if h.Standbys < 0 {
		return fmt.Errorf("sm: %d SM standbys", h.Standbys)
	}
	if h.Enabled() {
		if h.Heartbeat <= 0 {
			return fmt.Errorf("sm: HA requires a positive heartbeat")
		}
		if h.Heartbeat > sim.MaxTime-start {
			return fmt.Errorf("sm: HA heartbeat %v, starting as late as %v, ends past the simulator's largest time %v", h.Heartbeat, start, sim.MaxTime)
		}
	} else if h.SplitBrain {
		return fmt.Errorf("sm: split-brain handling requires HA standbys")
	}
	return nil
}

// electionSweepTimeout bounds each probe of the re-sweep a newly
// elected master verifies the fabric with.
const electionSweepTimeout = 25 * sim.Microsecond

// TakeoverEvent records one completed failover.
type TakeoverEvent struct {
	// DetectedAt is when the winning standby's lease expired.
	DetectedAt sim.Time
	// ElectedAt is when it declared itself master (staggered by priority
	// rank so exactly one standby wins deterministically).
	ElectedAt sim.Time
	// HealedAt is when the re-sweep finished and switch P_Key tables and
	// traps were re-installed — full enforcement restored.
	HealedAt sim.Time
	// ProbeMADs counts the SMPs the bounded re-sweep spent re-verifying
	// fabric state before reprogramming.
	ProbeMADs int
}

// MergeEvent records one completed split-brain merge.
type MergeEvent struct {
	// ContainedAt is when the losing island elected its contained
	// master — the dual-master window opens here.
	ContainedAt sim.Time
	// HealedAt is when a crossing heartbeat first revealed the rival
	// master — the earliest post-heal evidence of split-brain.
	HealedAt sim.Time
	// AbdicatedAt is when the loser stepped down — the dual-master
	// window closes here.
	AbdicatedAt sim.Time
	// MergedAt is when the winner finished absorbing the island: merge
	// census done, tables, traps and timers re-imposed fabric-wide, and
	// (with rotation on) the merged epoch minted and its distribution
	// scheduled.
	MergedAt sim.Time
	// Winner and Loser are mesh node indices.
	Winner, Loser int
	// ReconcileMADs counts the census MADs the merge re-sweep spent.
	ReconcileMADs int
}

// censusRound tracks one in-flight reachability census. Each ensemble
// entry runs at most one round at a time, but different entries census
// concurrently — the sitting master's periodic detection sweep must not
// block a cut-off standby's election probe, or a partition with a busy
// master side never elects an island master.
type censusRound struct {
	id    uint32
	entry int
	got   map[int]bool
	pings int
	done  censusDone
	fired bool
}

// censusDone receives a census verdict: the entry that ran it, the
// reached set (valid until the call returns) and the pings spent.
type censusDone func(entry int, got map[int]bool, pings int)

// entry is one ensemble member: its SM and node, and where it stands in
// the heartbeat / lease / election protocol.
type entry struct {
	sm        *SubnetManager
	node      int
	dead      bool
	lastHeard sim.Time
	// isMaster marks an entry asserting mastership. With SplitBrain off
	// only the active entry does; under a partition a second entry can
	// hold an island.
	isMaster bool
	// contained marks a master running in degraded island mode.
	contained                bool
	containedAt, abdicatedAt sim.Time
	hbSeq                    uint32
	stopHB, stopLease        func()
	// census is the entry's in-flight reachability census, nil when none.
	census *censusRound
	// island is the key rotator the entry's latest contained takeover
	// started, nil when none did.
	island *Rotator
}

// Coordinator wires a master SM and its standbys into the heartbeat /
// lease / election protocol. All scheduling rides the deterministic sim
// clock; heartbeat and state-sync MADs are real management packets, so
// fabric faults (link kills, MAD loss at a switch's tap) perturb failover
// exactly as they would in a physical subnet.
type Coordinator struct {
	sim  *sim.Simulator
	mesh *topology.Mesh
	cfg  HAConfig
	mkey keys.MKey

	entries []entry // [0] = initial master, then standbys in priority order
	active  int     // index into entries of the current fabric-wide master

	// Buffers reused from beat to beat and sync to sync: out is the state
	// sync the master stages (its member lists are windows into members),
	// hb and ss the two encoded payloads, and in the state sync a standby
	// parses.
	out     stateSyncMAD
	members []byte
	hb, ss  []byte
	in      stateSyncMAD

	stopCensus func()
	censusSeq  uint32
	// freeRounds holds finished rounds' records for reuse, and
	// freeElections finished election sweeps'. masterDone, electDone and
	// mergeDone are masterVerdict, electionVerdict and mergeVerdict as
	// func values, made once.
	freeRounds    []*censusRound
	freeElections []*election
	masterDone    censusDone
	electDone     censusDone
	mergeDone     censusDone
	// partialStreak counts the sitting master's consecutive partial
	// censuses; containment needs two in a row so a single congestion-
	// dropped pong cannot fake a partition.
	partialStreak int
	// mergeFrom is the entry being absorbed by an in-flight merge, -1
	// when no merge is running; mergeHealed is when that merge started.
	mergeFrom   int
	mergeHealed sim.Time

	// rekey and forks feed split-brain key handling (SetSplitKeys).
	rekey RotationConfig
	forks io.Reader

	// OnTakeover, when non-nil, runs after a standby finishes promotion
	// (the core layer restarts the planes it owns on the new master).
	OnTakeover func(newMaster *SubnetManager)

	Events   []TakeoverEvent
	Merges   []MergeEvent
	Counters metrics.Set[HACounter]
	ctr      [numHACounters]uint64 // Counters' cells
}

// NewCoordinator builds the HA ensemble. master must be the currently
// authoritative SM; standbys, in priority order, must share the master's
// mesh, filter and key authority, and are seeded with the master's
// partition table — as if from a first state sync — so a takeover before
// the first beat still programs correct tables. With no standbys (the
// unrecovered-loss baseline of a plan that kills the SM) the heartbeat
// defaults to 50 µs.
func NewCoordinator(s *sim.Simulator, mesh *topology.Mesh, cfg HAConfig, mkey keys.MKey, master *SubnetManager, standbys []*SubnetManager) (*Coordinator, error) {
	if err := cfg.Validate(s.Now()); err != nil {
		return nil, err
	}
	if len(standbys) != cfg.Standbys {
		return nil, fmt.Errorf("sm: %d standby SMs for %d configured", len(standbys), cfg.Standbys)
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 50 * sim.Microsecond
	}
	c := &Coordinator{sim: s, mesh: mesh, cfg: cfg, mkey: mkey}
	c.Counters.Bind(&haCounters, c.ctr[:])
	c.entries = make([]entry, 0, 1+len(standbys))
	for _, m := range append([]*SubnetManager{master}, standbys...) {
		n := m.Node()
		if n < 0 || n >= mesh.NumNodes() {
			return nil, fmt.Errorf("sm: HA node %d out of range", n)
		}
		if c.indexOfNode(n) >= 0 {
			return nil, fmt.Errorf("sm: HA node %d listed twice", n)
		}
		c.entries = append(c.entries, entry{sm: m, node: n})
	}
	c.masterDone, c.electDone, c.mergeDone = c.masterVerdict, c.electionVerdict, c.mergeVerdict
	c.entries[0].isMaster = true
	c.mergeFrom = -1
	c.stageSync(0)
	for _, sb := range standbys {
		sb.adoptSync(c.out.Partitions)
	}
	return c, nil
}

// Active returns the current master SM.
func (c *Coordinator) Active() *SubnetManager { return c.entries[c.active].sm }

// ActiveNode returns the current master's mesh node index.
func (c *Coordinator) ActiveNode() int { return c.entries[c.active].node }

// MasterAlive reports whether the currently active SM has not been
// killed. It is false only in the window between an SMKill and a
// successful takeover — or forever, with no standbys left to elect.
func (c *Coordinator) MasterAlive() bool { return !c.entries[c.active].dead }

// Masters returns the mesh nodes currently asserting mastership, in
// ensemble priority order. More than one entry means split-brain; the
// merge protocol's job is to bring this back to exactly one.
func (c *Coordinator) Masters() []int {
	var out []int
	for _, e := range c.entries {
		if e.isMaster && !e.dead {
			out = append(out, e.node)
		}
	}
	return out
}

// Start launches the master's heartbeats and every standby's lease
// checker, seeding each lease at the current sim time.
func (c *Coordinator) Start() {
	now := c.sim.Now()
	for i := range c.entries {
		c.entries[i].lastHeard = now
	}
	c.startHeartbeatsFrom(c.active)
	for i := 1; i < len(c.entries); i++ {
		c.entries[i].stopLease = c.sim.Every(c.cfg.Heartbeat, func() { c.checkLease(i) })
	}
	if c.cfg.SplitBrain {
		c.stopCensus = c.sim.Every(c.lease(), c.masterCensus)
	}
}

// lease is how long a standby tolerates heartbeat silence before
// starting its (priority-staggered) takeover countdown.
func (c *Coordinator) lease() sim.Time { return 3 * c.cfg.Heartbeat }

// Stop cancels every timer the coordinator owns, island key rotators
// included.
func (c *Coordinator) Stop() {
	for i := range c.entries {
		e := &c.entries[i]
		e.stopBeats()
		if e.stopLease != nil {
			e.stopLease()
			e.stopLease = nil
		}
		if e.island != nil {
			e.island.Stop()
		}
	}
	if c.stopCensus != nil {
		c.stopCensus()
		c.stopCensus = nil
	}
}

// KillMaster models the active master dying at the current sim time: its
// timers stop, its traps go unanswered, and no further heartbeats are
// emitted. Recovery, if any standby is configured, happens through lease
// expiry and election.
func (c *Coordinator) KillMaster() {
	e := &c.entries[c.active]
	if e.dead {
		return
	}
	e.dead = true
	e.stopBeats()
	e.sm.Stop()
}

// stopBeats cancels the entry's heartbeat timer, if it runs.
func (e *entry) stopBeats() {
	if e.stopHB != nil {
		e.stopHB()
		e.stopHB = nil
	}
}

// startHeartbeatsFrom begins entry idx's periodic beacon + state sync.
// With SplitBrain off only the active master ever beats; under a
// partition a contained island master beats too, per-entry.
func (c *Coordinator) startHeartbeatsFrom(idx int) {
	e := &c.entries[idx]
	e.stopBeats()
	e.stopHB = c.sim.Every(c.cfg.Heartbeat, func() { c.beatFrom(idx) })
}

// beatFrom sends one heartbeat and one state-sync MAD from master entry
// idx to each live peer entry.
func (c *Coordinator) beatFrom(idx int) {
	e := &c.entries[idx]
	if e.dead || !e.isMaster {
		return
	}
	e.hbSeq++
	c.stageSync(idx)
	c.hb = appendHeartbeat(c.hb[:0], heartbeatMAD{Master: uint16(e.node), Seq: e.hbSeq, Digest: c.out.DirDigest})
	c.ss = appendStateSync(c.ss[:0], &c.out)
	// With SplitBrain on, masters also beat entry 0 — that is how a
	// healed fabric reveals two masters to each other (an island master's
	// beat crossing the mended cut reaches the configured master).
	start := 1
	if c.cfg.SplitBrain {
		start = 0
	}
	for i := start; i < len(c.entries); i++ {
		peer := &c.entries[i]
		if peer.dead || i == idx {
			continue
		}
		c.sendMADFrom(e.node, peer.node, c.hb)
		c.sendMADFrom(e.node, peer.node, c.ss)
		c.Counters.Add(HAHeartbeatsSent, 1)
	}
}

// stageSync fills c.out with master entry idx's state: its partition
// table in ascending base order, each partition's current epoch, the
// digest over both, and its non-empty sync states in first-set order (a
// plane that is off sends no trailer).
func (c *Coordinator) stageSync(idx int) {
	master := c.entries[idx].sm
	n := 0
	for _, p := range master.partitions {
		n += 2 * len(p.members)
	}
	// Sized before the first window is cut, so no window moves.
	c.members = slices.Grow(c.members[:0], n)[:n]
	c.out.Master = uint16(c.entries[idx].node)
	c.out.Partitions = c.out.Partitions[:0]
	off := 0
	for _, p := range master.partitions {
		sp := syncPartition{Base: p.base, Members: c.members[off : off+2*len(p.members)]}
		for _, mem := range p.members {
			binary.BigEndian.PutUint16(c.members[off:], uint16(mem))
			off += 2
		}
		if master.Authority != nil {
			sp.Epoch = master.Authority.Epoch(packet.PKey(0x8000 | p.base))
		}
		c.out.Partitions = append(c.out.Partitions, sp)
	}
	c.out.DirDigest = fnv1a32(c.out.Partitions)
	c.out.Blobs = master.appendSyncState(c.out.Blobs[:0])
}

// sendMADFrom emits a management-class UD packet from src's HCA to dst,
// exactly like a violation trap: VL 15, DestQP 0, default P_Key,
// ICRC-sealed.
func (c *Coordinator) sendMADFrom(srcNode, dst int, payload []byte) {
	src := c.mesh.HCA(srcNode)
	d := src.Params().NewMAD(src.LID(), topology.LIDOf(dst), payload)
	d.Source = src.Name()
	src.Send(d)
}

// Dispatch routes a management delivery arriving at node. It consumes HA
// MADs (updating the receiving standby's lease and synced state), hands
// traps to the active master, and swallows traps addressed to a dead
// master (the window the failover experiment measures). It returns true
// when the delivery was consumed.
func (c *Coordinator) Dispatch(node int, d *fabric.Delivery) bool {
	if d.Pkt.BTH.DestQP != 0 || len(d.Pkt.Payload) == 0 {
		return false
	}
	switch d.Pkt.Payload[0] {
	case haTypeHeartbeat:
		hb, err := parseHeartbeat(d.Pkt.Payload)
		if err != nil {
			return false
		}
		i := c.indexOfNode(node)
		if i > 0 && !c.entries[i].dead && !c.entries[i].isMaster {
			c.entries[i].lastHeard = c.sim.Now()
		}
		if c.cfg.SplitBrain && i >= 0 && !c.entries[i].dead && c.entries[i].isMaster {
			// A master hearing another master's beat is the mutual-
			// discovery moment after a heal: the crossing beat proves the
			// cut is mended and both masters are live. The configured
			// priority (lower ensemble index) wins; the loser abdicates
			// and the winner absorbs its island.
			if j := c.indexOfNode(int(hb.Master)); j >= 0 && j != i && !c.entries[j].dead && c.entries[j].isMaster {
				w, l := i, j
				if l < w {
					w, l = l, w
				}
				c.abdicate(l)
				c.startMerge(w, l)
			}
		}
		return true
	case haTypeStateSync:
		sync := &c.in
		if err := parseStateSync(d.Pkt.Payload, sync); err != nil {
			return false
		}
		if i := c.indexOfNode(node); i > 0 && !c.entries[i].dead && !c.entries[i].isMaster {
			e := &c.entries[i]
			// Nothing authenticates the sender, so all of the MAD is
			// checked before any of it is believed: a member beyond the
			// mesh would index past every per-node table the promoted
			// master later walks, and bases out of ascending order would
			// break its partition table's order. One bad field refuses the
			// whole sync, lease refresh included.
			if !c.validSync(sync) {
				c.Counters.Add(HASyncsRejected, 1)
				return true
			}
			e.lastHeard = c.sim.Now()
			e.sm.adoptSync(sync.Partitions)
			for _, b := range sync.Blobs {
				e.sm.adoptSyncState(b)
			}
			c.Counters.Add(HASyncsAdopted, 1)
		}
		return true
	case haTypeCensusPing:
		cm, err := parseCensus(d.Pkt.Payload)
		if err != nil {
			return false
		}
		// Every node's management agent answers a census ping, SM or not:
		// reachability is what is being measured, so a dead SM's node
		// still pongs (its SMA outlives the SM process).
		var pong [censusPayloadSize]byte
		putCensus(pong[:], haTypeCensusPong, censusMAD{Node: uint16(node), ID: cm.ID})
		c.sendMADFrom(node, int(cm.Node), pong[:])
		return true
	case haTypeCensusPong:
		cm, err := parseCensus(d.Pkt.Payload)
		if err != nil {
			return false
		}
		if i := c.indexOfNode(node); i >= 0 {
			if round := c.entries[i].census; round != nil && cm.ID == round.id {
				round.got[int(cm.Node)] = true
				if len(round.got) == c.mesh.NumNodes() {
					// Unanimous: the verdict cannot change, deliver it now.
					// Only a genuine cut ever waits out the full window.
					c.finishCensus(round)
				}
			}
		}
		return true
	}
	// Anything else (traps) belongs to a master serving this node.
	if i := c.indexOfNode(node); i >= 0 {
		e := &c.entries[i]
		if e.dead {
			c.Counters.Add(HAMADsToDeadSM, 1)
			return true // the dead SM consumes nothing, the packet is lost
		}
		if e.isMaster {
			return e.sm.HandleManagement(d)
		}
	}
	return false
}

// validSync reports whether every partition of a parsed state sync can be
// adopted: bases strictly ascending, every member a node of the mesh.
func (c *Coordinator) validSync(sync *stateSyncMAD) bool {
	for j, p := range sync.Partitions {
		if j > 0 && p.Base <= sync.Partitions[j-1].Base {
			return false
		}
		for k := 0; k < len(p.Members); k += 2 {
			if int(binary.BigEndian.Uint16(p.Members[k:])) >= c.mesh.NumNodes() {
				return false
			}
		}
	}
	return true
}

func (c *Coordinator) indexOfNode(node int) int {
	for i := range c.entries {
		if c.entries[i].node == node {
			return i
		}
	}
	return -1
}

// checkLease is standby i's periodic liveness check. The takeover
// threshold is staggered by live-priority rank, so when several standbys
// all see the master dead, the highest-priority one's lease expires a
// full heartbeat before the next one's — by which time its heartbeats
// have already refreshed the others' leases. Election therefore needs no
// extra message round and stays deterministic.
func (c *Coordinator) checkLease(i int) {
	e := &c.entries[i]
	if e.dead || e.isMaster {
		return
	}
	if e.census != nil {
		// This standby's own election census is still collecting; its
		// verdict will elect or abort. A census can outlast the one-
		// heartbeat priority stagger, but the verdict's lease re-check
		// keeps elections single: whoever wins meanwhile beats
		// immediately, refreshing junior leases before a late census
		// verdict could double-elect.
		return
	}
	// Rank counts every live higher-priority standby, including one
	// that was just elected: its promotion must keep suppressing junior
	// takeovers until its heartbeats arrive, or an election and a junior
	// lease check landing on the same tick double-elect.
	rank := 0
	for j := 1; j < i; j++ {
		if !c.entries[j].dead {
			rank++
		}
	}
	deadline := e.lastHeard + c.lease() + sim.Time(rank)*c.cfg.Heartbeat
	if c.sim.Now() < deadline {
		return
	}
	if !c.cfg.SplitBrain {
		c.takeover(i)
		return
	}
	// Partition-aware election: census the fabric first.
	c.runCensus(i, c.electDone)
}

// electionVerdict acts on standby i's election census. Full reach means
// the master is really gone — take over normally. Partial reach means
// this standby is on an island: elect a contained master that serves
// only what it can see.
func (c *Coordinator) electionVerdict(i int, got map[int]bool, _ int) {
	e := &c.entries[i]
	if e.dead || e.isMaster {
		return
	}
	if c.sim.Now() < e.lastHeard+c.lease() {
		return // heartbeats resumed while the census was collecting
	}
	if len(got) == c.mesh.NumNodes() {
		c.takeover(i)
		return
	}
	c.containedTakeover(i, got)
}

// takeover promotes standby i: it re-verifies fabric state with a bounded
// re-sweep from its own HCA, then re-programs every switch P_Key table,
// re-attaches violation traps to itself, resumes the SIF auto-disable
// duty, and starts heartbeating the surviving standbys.
func (c *Coordinator) takeover(i int) {
	detected := c.entries[i].lastHeard + c.lease()
	elected := c.sim.Now()
	c.entries[c.active].stopBeats()
	c.entries[c.active].isMaster = false
	c.active = i
	c.entries[i].isMaster = true
	c.Counters.Add(HATakeovers, 1)

	// Assert mastership immediately: one beat now and the periodic
	// beacon from here on. Without this the surviving standbys hear
	// nothing for the whole re-sweep — longer than their one-heartbeat
	// election stagger — and cascade into takeovers of their own.
	c.beatFrom(i)
	c.startHeartbeatsFrom(i)

	c.electionSweep(i, false, detected, elected)
}

// election is the record of one election sweep in flight: the entry it
// promotes, whether to an island (containedTakeover) or the whole fabric
// (takeover), and for the latter when the loss was detected and the
// entry elected. done is finish as a func value, made once per record;
// a record is reused once its sweep has finished.
type election struct {
	c                 *Coordinator
	i                 int
	contained         bool
	detected, elected sim.Time
	done              func(*DiscoveredTopology)
}

// electionSweep re-verifies fabric state with a bounded probe from newly
// elected entry i's own HCA; its record's finish completes the promotion.
func (c *Coordinator) electionSweep(i int, contained bool, detected, elected sim.Time) {
	var e *election
	if n := len(c.freeElections); n > 0 {
		e = c.freeElections[n-1]
		c.freeElections = c.freeElections[:n-1]
	} else {
		e = &election{c: c}
		e.done = e.finish
	}
	e.i, e.contained, e.detected, e.elected = i, contained, detected, elected
	disc := NewDiscoverer(c.sim, c.mesh.HCA(c.entries[i].node), c.mkey, electionSweepTimeout)
	disc.MaxRetries = 1
	disc.Probe(e.done)
}

// finish completes an election once its sweep has probed the fabric: the
// new master programs tables, attaches traps and resumes its timers —
// unless an island master abdicated before its re-sweep finished.
func (e *election) finish(topo *DiscoveredTopology) {
	r := *e
	c, ent := r.c, &r.c.entries[r.i]
	m := ent.sm
	c.freeElections = append(c.freeElections, e)
	if r.contained && (ent.dead || !ent.isMaster) {
		return // abdicated before the island re-sweep finished
	}
	m.ProgramSwitchTables()
	m.AttachTraps()
	m.ResumeTimers()
	if r.contained {
		c.islandKeys(r.i)
		return
	}
	c.Events = append(c.Events, TakeoverEvent{
		DetectedAt: r.detected,
		ElectedAt:  r.elected,
		HealedAt:   c.sim.Now(),
		ProbeMADs:  topo.Probes,
	})
	if c.OnTakeover != nil {
		c.OnTakeover(m)
	}
}

// runCensus starts a reachability census from entry i's node: one ping to
// every other fabric node, a midway re-ping of whoever has not answered
// (VL15 has strict arbitration priority but no preemption, so a MAD can
// trail a large data packet at every hop — one late pong must not read
// as a cut), and a verdict. The verdict fires early the moment every
// node has answered; only a genuine cut waits out the full window, so
// the window can be generous without slowing the healthy path. done
// receives the reached set (i's own node included) and the number of
// pings spent. Starting a round replaces the entry's previous round, if
// any: the stale round's pongs no longer match and its verdict is
// swallowed — it describes reachability as of pings that a merge or a
// newer round has already superseded.
func (c *Coordinator) runCensus(i int, done censusDone) {
	e := &c.entries[i]
	c.censusSeq++
	round := c.newRound()
	round.id, round.entry, round.pings, round.done, round.fired = c.censusSeq, i, 0, done, false
	round.got[e.node] = true
	e.census = round
	c.Counters.Add(HACensusRounds, 1)
	var ping [censusPayloadSize]byte
	putCensus(ping[:], haTypeCensusPing, censusMAD{Node: uint16(e.node), ID: round.id})
	for nd := 0; nd < c.mesh.NumNodes(); nd++ {
		if nd == e.node {
			continue
		}
		c.sendMADFrom(e.node, nd, ping[:])
		round.pings++
	}
	// The window must cover a fabric-diameter MAD round trip, or healthy
	// distant nodes read as unreachable and the master contains itself in
	// a whole fabric. Outlasting the heartbeat is safe: every election
	// verdict re-checks the lease, so a master elected meanwhile aborts
	// the late census's election instead of double-electing.
	wait := 2 * c.lease()
	c.sim.ScheduleCall(wait/2, (*censusReping)(c), round, uint64(round.id))
	c.sim.ScheduleCall(wait, (*censusDeadline)(c), round, uint64(round.id))
}

// newRound returns a census record with an empty reached set: a finished
// round's (see finishCensus), or a new one.
func (c *Coordinator) newRound() *censusRound {
	if n := len(c.freeRounds); n > 0 {
		round := c.freeRounds[n-1]
		c.freeRounds = c.freeRounds[:n-1]
		clear(round.got)
		return round
	}
	return &censusRound{got: make(map[int]bool)}
}

// censusReping and censusDeadline are a round's midway re-ping and its
// window's end: named handler types over Coordinator (see sim.Handler)
// whose operands are the round and its id. A record is reused once its
// round has finished, so an event whose id no longer matches belongs to
// a finished round and does nothing.
type (
	censusReping   Coordinator
	censusDeadline Coordinator
)

func (h *censusReping) Fire(arg any, id uint64) {
	c, round := (*Coordinator)(h), arg.(*censusRound)
	e := &c.entries[round.entry]
	if round.id != uint32(id) || e.census != round || round.fired {
		return
	}
	var ping [censusPayloadSize]byte
	putCensus(ping[:], haTypeCensusPing, censusMAD{Node: uint16(e.node), ID: round.id})
	for nd := 0; nd < c.mesh.NumNodes(); nd++ {
		if nd == e.node || round.got[nd] {
			continue
		}
		c.sendMADFrom(e.node, nd, ping[:])
		round.pings++
	}
}

func (h *censusDeadline) Fire(arg any, id uint64) {
	if round := arg.(*censusRound); round.id == uint32(id) {
		(*Coordinator)(h).finishCensus(round)
	}
}

// finishCensus delivers a round's verdict exactly once — on unanimity or
// at the window deadline, whichever comes first. A round that is no
// longer its entry's current one was replaced mid-flight (a merge census
// superseding the detection sweep); its verdict is stale evidence and is
// dropped. Once the verdict has run, the record is free for reuse.
func (c *Coordinator) finishCensus(round *censusRound) {
	if round.fired || c.entries[round.entry].census != round {
		return
	}
	round.fired = true
	c.entries[round.entry].census = nil
	round.done(round.entry, round.got, round.pings)
	c.freeRounds = append(c.freeRounds, round)
}

// masterCensus is the sitting master's periodic partition check: two
// consecutive partial censuses drop it into contained island mode (two,
// so a single congestion-dropped pong cannot fake a partition), and one
// full census after containment — the cut healed without the far side
// ever electing a rival — lifts the containment and re-imposes fabric-
// wide state. A false full is impossible: pongs carry the round id, so
// only nodes reachable right now can answer.
func (c *Coordinator) masterCensus() {
	if e := &c.entries[c.active]; e.dead || !e.isMaster || e.census != nil || c.mergeFrom >= 0 {
		return
	}
	c.runCensus(c.active, c.masterDone)
}

// masterVerdict acts on the sitting master's periodic census.
func (c *Coordinator) masterVerdict(i int, got map[int]bool, _ int) {
	e := &c.entries[i]
	if e.dead || !e.isMaster || c.mergeFrom >= 0 {
		return
	}
	full := len(got) == c.mesh.NumNodes()
	if full {
		c.partialStreak = 0
	} else {
		c.partialStreak++
	}
	switch {
	case !full && !e.contained && c.partialStreak >= 2:
		c.contain(e, got)
	case full && e.contained:
		c.uncontain(e)
	}
}

// contain drops sitting master entry e into degraded island mode: every
// fabric-touching duty — key distribution, table programming, trap
// re-attachment — is scoped to the nodes its census reached. Policy-
// plane writes are frozen by the same scoping: unreachable switches are
// never written, so nothing pretends to cross the cut.
func (c *Coordinator) contain(e *entry, got map[int]bool) {
	e.contained = true
	e.containedAt = c.sim.Now()
	c.Counters.Add(HAContainments, 1)
	e.sm.SetIsland(sortedNodes(got))
}

// uncontain lifts entry e's containment after a heal with no rival: the
// island scope clears, tables and traps are re-imposed fabric-wide, and
// every member store gets each partition's current epoch, because the
// rejoined side missed every rotation of the partition. A store holding
// a stale epoch has it displaced into the grace window, so straggler
// traffic drains instead of hard-failing.
func (c *Coordinator) uncontain(e *entry) {
	e.contained = false
	m := e.sm
	m.SetIsland(nil)
	m.ProgramSwitchTables()
	m.AttachTraps()
	if m.Authority == nil || m.Stores == nil {
		return
	}
	for _, p := range m.partitions {
		pk := packet.PKey(0x8000 | p.base)
		if ek, ok := m.Authority.CurrentKey(pk); ok {
			for _, n := range p.members {
				m.Stores[n].InstallPartitionEpoch(pk, ek.Epoch, ek.Key)
			}
		}
	}
}

// containedTakeover elects standby entry i as the contained master of
// the island its census reached: it asserts mastership with heartbeats
// (suppressing junior island standbys), re-sweeps the island with a
// bounded probe from its own HCA — the cut stops propagation, so
// discovery is naturally island-bounded — then re-imposes island-scoped
// tables, traps and timers.
func (c *Coordinator) containedTakeover(i int, got map[int]bool) {
	e := &c.entries[i]
	e.isMaster = true
	e.contained = true
	e.containedAt = c.sim.Now()
	c.Counters.Add(HAContainedTakeovers, 1)
	e.sm.SetIsland(sortedNodes(got))
	c.beatFrom(i)
	c.startHeartbeatsFrom(i)

	c.electionSweep(i, true, 0, 0)
}

// abdicate steps island master entry i down in favour of the winning
// entry: heartbeats stop, the island scope clears, periodic duties park,
// the entry rejoins the standby pool with a fresh lease (the winner's
// beats keep it fresh thereafter), and its island key rotator parks (the
// authority fork stays readable until the merge reconciles it).
func (c *Coordinator) abdicate(i int) {
	e := &c.entries[i]
	if e.dead || !e.isMaster {
		return
	}
	e.isMaster = false
	e.contained = false
	e.abdicatedAt = c.sim.Now()
	c.Counters.Add(HAAbdications, 1)
	e.stopBeats()
	e.sm.SetIsland(nil)
	e.sm.Stop()
	e.lastHeard = c.sim.Now()
	if e.island != nil {
		e.island.Stop()
	}
}

// startMerge is the winning master's half of the merge protocol: a merge
// census re-verifies what is reachable now that the cut has mended, then
// the winner re-imposes fabric-wide state — switch tables, trap
// routing, periodic duties — and reconciles the two key-epoch lineages.
func (c *Coordinator) startMerge(i, j int) {
	if c.mergeFrom >= 0 || c.entries[i].dead || !c.entries[i].isMaster {
		return
	}
	c.mergeFrom, c.mergeHealed = j, c.sim.Now()
	c.Counters.Add(HAMerges, 1)
	c.runCensus(i, c.mergeDone)
}

// mergeVerdict completes the merge of entry mergeFrom into winner i once
// the merge census has re-verified reachability.
func (c *Coordinator) mergeVerdict(i int, got map[int]bool, pings int) {
	w, l := &c.entries[i], &c.entries[c.mergeFrom]
	winner := w.sm
	c.active = i
	w.contained = false
	c.partialStreak = 0 // detection starts fresh on the merged fabric
	winner.SetIsland(nil)
	winner.ProgramSwitchTables()
	winner.AttachTraps()
	winner.ResumeTimers()
	c.Merges = append(c.Merges, MergeEvent{
		ContainedAt:   l.containedAt,
		HealedAt:      c.mergeHealed,
		AbdicatedAt:   l.abdicatedAt,
		MergedAt:      c.sim.Now(),
		Winner:        w.node,
		Loser:         l.node,
		ReconcileMADs: pings + len(got) - 1,
	})
	c.reconcileEpochs(winner, l.sm)
	c.mergeFrom = -1
}

// sortedNodes flattens a census result into a deterministic island list.
func sortedNodes(got map[int]bool) []int {
	out := make([]int, 0, len(got))
	for n := range got {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
