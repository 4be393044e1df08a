package sm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ibasec/internal/fabric"
	"ibasec/internal/metrics"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// Performance management plane (IBA 16.1): a PerfMgr co-located with the
// master SM sweeps every inter-switch link's PortCounters over real PMA
// MADs, scores each link's error rate with a delta-based EWMA, and
// proactively quarantines flaky ("gray") links — rerouting around them
// with the same failure-aware BFS the heal path uses, before the link
// degrades into a hard failure. Re-admission is gated by a probation
// hold-down that grows exponentially per flap when damping is on, so an
// adversary oscillating a link's bit-error rate cannot convert the
// health plane into a route-churn amplifier: the damped fabric pays a
// bounded number of reroutes no matter how fast the attacker toggles.

// smpAttrPortCounters extends the directed-route SMP attribute space
// (NodeInfo 1 … AuditRepair 6) with the PMA's PortCounters attribute:
// Get reads one port's error counters (request data[0] selects the
// port on a switch; CAs have a single port), Set re-arms the port's
// threshold trap after the PerfMgr consumed a trap notice.
const smpAttrPortCounters = 7

// AttrPortCounters is the exported attribute value for callers driving
// the PMA protocol through Discoverer.Query.
const AttrPortCounters = smpAttrPortCounters

// portCountersSize is the encoded attribute size: symbol(2), rcv(2),
// linkDowned(1), xmitDiscards(2), vl15Dropped(2) — well inside the
// 16-byte SMP data area, so PMA traffic is wire-identical in size and
// timing to discovery SMPs.
const portCountersSize = 9

// encodePortCounters packs a PortCounters reading into an SMP data area.
func encodePortCounters(data []byte, pc fabric.PortCounters) {
	binary.BigEndian.PutUint16(data[0:2], pc.SymbolErrors)
	binary.BigEndian.PutUint16(data[2:4], pc.RcvErrors)
	data[4] = pc.LinkDowned
	binary.BigEndian.PutUint16(data[5:7], pc.XmitDiscards)
	binary.BigEndian.PutUint16(data[7:9], pc.VL15Dropped)
}

// ParsePortCounters decodes a PortCounters response data area.
func ParsePortCounters(data []byte) fabric.PortCounters {
	return fabric.PortCounters{
		SymbolErrors: binary.BigEndian.Uint16(data[0:2]),
		RcvErrors:    binary.BigEndian.Uint16(data[2:4]),
		LinkDowned:   data[4],
		XmitDiscards: binary.BigEndian.Uint16(data[5:7]),
		VL15Dropped:  binary.BigEndian.Uint16(data[7:9]),
	}
}

// CounterDelta returns cur−prev clamped at zero. IBA counters saturate
// rather than wrap, so cur < prev only after a management reset; the
// clamp keeps a reset (or a saturated pair of reads) from producing a
// huge or negative error burst. A read stuck at the ceiling yields a
// zero delta — an underestimate, never an overcount.
func CounterDelta(prev, cur uint16) uint64 {
	if cur <= prev {
		return 0
	}
	return uint64(cur - prev)
}

// portErrDelta is the per-sweep error contribution of one port: the
// clamped deltas of the two counters a gray link drives.
func portErrDelta(prev, cur fabric.PortCounters) uint64 {
	return CounterDelta(prev.SymbolErrors, cur.SymbolErrors) +
		CounterDelta(prev.RcvErrors, cur.RcvErrors)
}

// PerfConfig tunes the performance manager.
type PerfConfig struct {
	// SweepPeriod is the full-fabric PortCounters sweep interval.
	SweepPeriod sim.Time
	// Alpha is the EWMA smoothing factor applied to each link's
	// per-sweep error count: score = α·errs + (1−α)·score.
	Alpha float64
	// QuarantineScore is the EWMA score at or above which a link is
	// fenced; ReadmitScore is the score at or below which a fenced link
	// may return to service once its hold-down expires.
	QuarantineScore float64
	ReadmitScore    float64
	// Probation is the base hold-down a quarantined link serves before
	// re-admission is considered.
	Probation sim.Time
	// HoldMax caps the exponentially grown hold-down under Damping.
	HoldMax sim.Time
	// Damping makes the hold-down grow as Probation·2^(flaps−1), capped
	// at HoldMax — the flap-damping defence against oscillating-BER
	// route-churn attacks. Off, every quarantine serves flat Probation.
	Damping bool
	// TrapThreshold arms a switch-local threshold trap on every port:
	// when a port's symbol+receive error sum crosses it, the switch
	// notifies the PerfMgr immediately (the fast path) instead of
	// waiting for the next sweep. Zero disables traps.
	TrapThreshold uint64
}

// HealthEvent reports one quarantine transition.
type HealthEvent struct {
	Link topology.LinkID // canonical (lower-switch) half
	At   sim.Time
	// Quarantined true: the link was fenced; false: re-admitted.
	Quarantined bool
	Score       float64
	Flaps       int // quarantine entries so far, this one included
}

// linkHealth is one watched link's scoring state.
type linkHealth struct {
	prevA, prevB fabric.PortCounters // last reads of the two halves
	haveA, haveB bool
	score        float64
	quarantined  bool
	flaps        int
	holdUntil    sim.Time
}

// PerfMgr drives the sweep/score/quarantine loop.
type PerfMgr struct {
	sim  *sim.Simulator
	mesh *topology.Mesh
	disc *Discoverer
	sm   *SubnetManager // HealthBlob owner; may be nil in tests
	cfg  PerfConfig

	paths map[int][]byte // directed-route path per switch
	links []topology.LinkID
	state map[topology.LinkID]*linkHealth
	// quarantined holds the canonical halves of fenced links.
	quarantined map[topology.LinkID]bool
	swIdx       map[*fabric.Switch]int

	sweeping bool
	checking map[topology.LinkID]bool
	stopped  bool
	stop     func()

	// Counters: sweeps, sweeps_skipped, health_sweep_mads,
	// health_unanswered, quarantines, readmits, quarantine_refused,
	// reroute_mads, health_trap_mads, trap_rearm_mads.
	Counters *metrics.Counters
	// OnEvent, when non-nil, receives every quarantine transition.
	OnEvent func(HealthEvent)
	Events  []HealthEvent
}

// NewPerfMgr builds a performance manager sweeping mesh from the SM's
// node over disc (which must be the PerfMgr's own Discoverer — sharing
// the resweeper's would let its per-sweep Reset cancel PMA probes
// mid-flight). smgr, when non-nil, receives the encoded quarantine
// state as its HealthBlob so HA state sync carries it to standbys.
func NewPerfMgr(s *sim.Simulator, mesh *topology.Mesh, disc *Discoverer, smgr *SubnetManager, cfg PerfConfig) *PerfMgr {
	if cfg.SweepPeriod <= 0 {
		panic("sm: non-positive perf sweep period")
	}
	pm := &PerfMgr{
		sim:         s,
		mesh:        mesh,
		disc:        disc,
		sm:          smgr,
		cfg:         cfg,
		state:       make(map[topology.LinkID]*linkHealth),
		quarantined: make(map[topology.LinkID]bool),
		swIdx:       make(map[*fabric.Switch]int, len(mesh.Switches)),
		checking:    make(map[topology.LinkID]bool),
		Counters:    metrics.NewCounters(),
	}
	var smNode int
	if smgr != nil {
		smNode = smgr.Node()
	}
	pm.paths = healthSwitchPaths(mesh, smNode)
	// Watch every inter-switch link once, keyed by its canonical
	// (lower-switch) half: East and South ports enumerate each link
	// exactly once on a mesh. HCA uplinks are not watched — they have
	// no alternate route, so quarantining one only disconnects the node.
	for i := range mesh.Switches {
		pm.swIdx[mesh.Switches[i]] = i
		for _, p := range []int{topology.PortEast, topology.PortSouth} {
			if isHCA, _, _, ok := mesh.LinkPeer(i, p); ok && !isHCA {
				l := topology.LinkID{Switch: i, Port: p}
				pm.links = append(pm.links, l)
				pm.state[l] = &linkHealth{}
			}
		}
	}
	return pm
}

// Start arms the periodic sweep and, when configured, the switch-local
// threshold traps.
func (pm *PerfMgr) Start() {
	if pm.stop != nil {
		return
	}
	pm.stopped = false
	if pm.cfg.TrapThreshold > 0 {
		for _, sw := range pm.mesh.Switches {
			sw.SetHealthTrap(pm.cfg.TrapThreshold, pm.onTrap)
		}
	}
	pm.stop = pm.sim.Every(pm.cfg.SweepPeriod, pm.tick)
}

// Stop cancels the sweep and disarms the traps (in-flight probes drain
// on their own, and a stopped PerfMgr ignores their answers).
func (pm *PerfMgr) Stop() {
	pm.stopped = true
	if pm.stop != nil {
		pm.stop()
		pm.stop = nil
	}
	for _, sw := range pm.mesh.Switches {
		sw.SetHealthTrap(0, nil)
	}
}

// Quarantined returns a copy of the fenced-link set (canonical halves).
func (pm *PerfMgr) Quarantined() map[topology.LinkID]bool {
	out := make(map[topology.LinkID]bool, len(pm.quarantined))
	for l := range pm.quarantined {
		out[l] = true
	}
	return out
}

// QuarantinedEdges translates the fenced set into the GUID-and-port
// edge halves a Resweeper strips from probe results (both directions of
// every fenced link), so a heal sweep never re-programs routes back
// over a link the health plane fenced.
func (pm *PerfMgr) QuarantinedEdges() map[uint64]map[int]bool {
	out := make(map[uint64]map[int]bool)
	add := func(guid uint64, port int) {
		if out[guid] == nil {
			out[guid] = make(map[int]bool)
		}
		out[guid][port] = true
	}
	for l := range pm.quarantined {
		add(pm.mesh.Switches[l.Switch].GUID(), l.Port)
		if isHCA, peer, peerPort, ok := pm.mesh.LinkPeer(l.Switch, l.Port); ok && !isHCA {
			add(pm.mesh.Switches[peer].GUID(), peerPort)
		}
	}
	return out
}

// Sweep runs one sweep immediately (tests; Start drives it periodically).
func (pm *PerfMgr) Sweep() { pm.tick() }

func (pm *PerfMgr) tick() {
	if pm.stopped {
		return
	}
	if pm.sweeping {
		pm.Counters.Inc("sweeps_skipped", 1)
		return
	}
	pm.sweeping = true
	pm.Counters.Inc("sweeps", 1)
	outstanding := len(pm.links)
	if outstanding == 0 {
		pm.sweeping = false
		return
	}
	for _, l := range pm.links {
		l := l
		pm.sampleLink(l, func() {
			outstanding--
			if outstanding > 0 {
				return
			}
			// All scores updated: decide in canonical link order, then
			// reprogram once if anything changed.
			changed := false
			for _, l := range pm.links {
				if pm.decide(l) {
					changed = true
				}
			}
			if changed {
				pm.reprogram()
			}
			pm.sweeping = false
		})
	}
}

// readPort issues one PortCounters Get for a switch port.
func (pm *PerfMgr) readPort(swIdx, port int, cb func(ok bool, pc fabric.PortCounters)) {
	path, havePath := pm.paths[swIdx]
	if !havePath {
		cb(false, fabric.PortCounters{})
		return
	}
	pm.Counters.Inc("health_sweep_mads", 1)
	pm.disc.Query(smpMethodGet, smpAttrPortCounters, path, []byte{byte(port)}, func(status byte, data []byte) {
		if pm.stopped || status != smpStatusOK || len(data) < portCountersSize {
			if status != smpStatusOK {
				pm.Counters.Inc("health_unanswered", 1)
			}
			cb(false, fabric.PortCounters{})
			return
		}
		cb(true, ParsePortCounters(data))
	})
}

// sampleLink reads both halves of one link, folds the clamped counter
// deltas into the link's EWMA score, and calls done. A half whose probe
// timed out contributes nothing this round and keeps its baseline.
func (pm *PerfMgr) sampleLink(l topology.LinkID, done func()) {
	st := pm.state[l]
	_, peer, peerPort, ok := pm.mesh.LinkPeer(l.Switch, l.Port)
	if !ok || st == nil {
		done()
		return
	}
	var errs uint64
	remaining := 2
	finish := func() {
		remaining--
		if remaining > 0 {
			return
		}
		st.score = pm.cfg.Alpha*float64(errs) + (1-pm.cfg.Alpha)*st.score
		done()
	}
	pm.readPort(l.Switch, l.Port, func(ok bool, cur fabric.PortCounters) {
		if ok {
			if st.haveA {
				errs += portErrDelta(st.prevA, cur)
			}
			st.prevA, st.haveA = cur, true
		}
		finish()
	})
	pm.readPort(peer, peerPort, func(ok bool, cur fabric.PortCounters) {
		if ok {
			if st.haveB {
				errs += portErrDelta(st.prevB, cur)
			}
			st.prevB, st.haveB = cur, true
		}
		finish()
	})
}

// holdFor computes the hold-down a link entering its flaps-th
// quarantine serves before re-admission is considered.
func (pm *PerfMgr) holdFor(flaps int) sim.Time {
	hold := pm.cfg.Probation
	if pm.cfg.Damping {
		for i := 1; i < flaps; i++ {
			if pm.cfg.HoldMax > 0 && hold >= pm.cfg.HoldMax {
				break
			}
			hold *= 2
		}
		if pm.cfg.HoldMax > 0 && hold > pm.cfg.HoldMax {
			hold = pm.cfg.HoldMax
		}
	}
	return hold
}

// decide applies the quarantine/re-admission policy to one link and
// reports whether the fenced set changed (the caller reprograms).
func (pm *PerfMgr) decide(l topology.LinkID) bool {
	st := pm.state[l]
	now := pm.sim.Now()
	if !st.quarantined {
		if st.score < pm.cfg.QuarantineScore {
			return false
		}
		proposed := make(map[topology.LinkID]bool, len(pm.quarantined)+1)
		for q := range pm.quarantined {
			proposed[q] = true
		}
		proposed[l] = true
		// Never let the health plane partition the fabric: an attacker
		// degrading many links must not be able to talk the PerfMgr into
		// fencing the last path. A quarantine that would leave any
		// destination unroutable is refused; the link stays in service
		// (degraded beats disconnected).
		if !pm.routesComplete(proposed) {
			pm.Counters.Inc("quarantine_refused", 1)
			return false
		}
		st.quarantined = true
		st.flaps++
		st.holdUntil = now + pm.holdFor(st.flaps)
		pm.quarantined[l] = true
		pm.Counters.Inc("quarantines", 1)
		pm.emit(HealthEvent{Link: l, At: now, Quarantined: true, Score: st.score, Flaps: st.flaps})
		return true
	}
	// Quarantined: a fenced link carries no traffic, so its score decays
	// by (1−α) per sweep; re-admission needs the hold-down served AND
	// the score below the bar.
	if now >= st.holdUntil && st.score <= pm.cfg.ReadmitScore {
		st.quarantined = false
		delete(pm.quarantined, l)
		pm.Counters.Inc("readmits", 1)
		pm.emit(HealthEvent{Link: l, At: now, Quarantined: false, Score: st.score, Flaps: st.flaps})
		return true
	}
	return false
}

// routesComplete reports whether avoiding the proposed fenced set still
// leaves every switch a route to every assigned LID.
func (pm *PerfMgr) routesComplete(proposed map[topology.LinkID]bool) bool {
	lids := 0
	for _, h := range pm.mesh.HCAs {
		if h.LID() != 0 {
			lids++
		}
	}
	routes := pm.mesh.RoutesAvoiding(nil, proposed)
	for i := range pm.mesh.Switches {
		if len(routes[i]) != lids {
			return false
		}
	}
	return true
}

// reprogram recomputes forwarding around the fenced set, writes every
// switch, and refreshes the HA-synced quarantine blob. Each route write
// is charged as one configuration MAD.
func (pm *PerfMgr) reprogram() {
	routes := pm.mesh.RoutesAvoiding(nil, pm.quarantined)
	pm.mesh.Reprogram(routes)
	pm.Counters.Inc("reroute_mads", uint64(len(routes))*uint64(len(pm.mesh.HCAs)))
	pm.updateBlob()
}

func (pm *PerfMgr) emit(ev HealthEvent) {
	pm.Events = append(pm.Events, ev)
	if pm.OnEvent != nil {
		pm.OnEvent(ev)
	}
}

// onTrap is the switch-local threshold trap upcall: the fast path. The
// switch has disarmed the port's trap; the PerfMgr samples the struck
// link immediately instead of waiting out the sweep period, then
// re-arms the trap with a PortCounters Set.
func (pm *PerfMgr) onTrap(sw *fabric.Switch, port int) {
	if pm.stopped {
		return
	}
	idx, ok := pm.swIdx[sw]
	if !ok {
		return
	}
	// The trap notice is charged as one MAD; handling is deferred a tick
	// so the fabric finishes delivering the packet that struck out.
	pm.Counters.Inc("health_trap_mads", 1)
	pm.sim.Schedule(0, func() { pm.handleTrap(idx, port) })
}

func (pm *PerfMgr) handleTrap(swIdx, port int) {
	if pm.stopped {
		return
	}
	isHCA, peer, peerPort, ok := pm.mesh.LinkPeer(swIdx, port)
	if !ok || isHCA {
		// Unwatched port (HCA uplink): nothing to quarantine, re-arm.
		pm.rearm(swIdx, port)
		return
	}
	l := topology.LinkID{Switch: swIdx, Port: port}
	if peer < swIdx {
		l = topology.LinkID{Switch: peer, Port: peerPort}
	}
	if pm.state[l] == nil || pm.sweeping || pm.checking[l] {
		// A sweep or targeted check already in flight will score this
		// strike; just re-arm.
		pm.rearm(swIdx, port)
		return
	}
	pm.checking[l] = true
	pm.sampleLink(l, func() {
		delete(pm.checking, l)
		if pm.stopped {
			return
		}
		if pm.decide(l) {
			pm.reprogram()
		}
		pm.rearm(swIdx, port)
	})
}

// rearm re-enables the port's threshold trap with a PortCounters Set.
func (pm *PerfMgr) rearm(swIdx, port int) {
	path, ok := pm.paths[swIdx]
	if !ok {
		return
	}
	pm.Counters.Inc("trap_rearm_mads", 1)
	pm.disc.Query(smpMethodSet, smpAttrPortCounters, path, []byte{byte(port)}, func(byte, []byte) {})
}

// healthSwitchPaths computes the directed-route path from the SM's node
// to every switch of a healthy mesh — the same BFS discovery uses, so
// PMA probes travel the routes a real sweep would find.
func healthSwitchPaths(mesh *topology.Mesh, smNode int) map[int][]byte {
	g := mesh.EdgeGUIDs()
	next := topology.NextHops(g)
	root := mesh.SwitchOf(smNode).GUID()
	paths := make(map[int][]byte, len(mesh.Switches))
	for i, sw := range mesh.Switches {
		tgt := sw.GUID()
		if tgt == root {
			paths[i] = []byte{}
			continue
		}
		var path []byte
		cur := root
		for cur != tgt {
			p, ok := next[cur][tgt]
			if !ok {
				path = nil
				break
			}
			path = append(path, byte(p))
			cur = g[cur][p]
		}
		if path != nil {
			paths[i] = path
		}
	}
	return paths
}

// --- HA quarantine blob -------------------------------------------------

// healthBlobMagic opens every encoded quarantine-state blob; it must
// stay distinct from the policy ("IBPL") and congestion-control
// ("IBCC") magics the state-sync trailer classifier switches on.
const healthBlobMagic = "IBHQ"

// healthBlobVersion is the current encoding version.
const healthBlobVersion = 1

// healthEntrySize is the per-link encoding: switch(2), port(1),
// flaps(2), holdUntil(8).
const healthEntrySize = 13

// HealthEntry is one fenced link's HA-synced state: which link, how
// many times it has flapped (so a promoted standby keeps the grown
// hold-down), and when its current hold-down expires.
type HealthEntry struct {
	Link      topology.LinkID
	Flaps     int
	HoldUntil sim.Time
}

// EncodeHealthBlob renders the fenced-link set into the deterministic
// wire form carried by HA state sync: entries sorted by (switch, port).
func EncodeHealthBlob(entries []HealthEntry) []byte {
	sorted := append([]HealthEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Link.Switch != sorted[j].Link.Switch {
			return sorted[i].Link.Switch < sorted[j].Link.Switch
		}
		return sorted[i].Link.Port < sorted[j].Link.Port
	})
	b := make([]byte, 7+healthEntrySize*len(sorted))
	copy(b, healthBlobMagic)
	b[4] = healthBlobVersion
	binary.BigEndian.PutUint16(b[5:7], uint16(len(sorted)))
	off := 7
	for _, e := range sorted {
		binary.BigEndian.PutUint16(b[off:], uint16(e.Link.Switch))
		b[off+2] = byte(e.Link.Port)
		binary.BigEndian.PutUint16(b[off+3:], uint16(e.Flaps))
		binary.BigEndian.PutUint64(b[off+5:], uint64(e.HoldUntil))
		off += healthEntrySize
	}
	return b
}

// IsHealthBlob reports whether the blob opens with the quarantine-state
// magic — the state-sync trailer classifier.
func IsHealthBlob(b []byte) bool {
	return len(b) >= len(healthBlobMagic) && string(b[:len(healthBlobMagic)]) == healthBlobMagic
}

// ParseHealthBlob decodes an encoded quarantine state, rejecting
// truncated, mis-tagged, or mis-sized blobs.
func ParseHealthBlob(b []byte) ([]HealthEntry, error) {
	if !IsHealthBlob(b) {
		return nil, fmt.Errorf("sm: not a health blob")
	}
	if len(b) < 7 {
		return nil, fmt.Errorf("sm: truncated health blob")
	}
	if b[4] != healthBlobVersion {
		return nil, fmt.Errorf("sm: health blob version %d, want %d", b[4], healthBlobVersion)
	}
	n := int(binary.BigEndian.Uint16(b[5:7]))
	if len(b) != 7+healthEntrySize*n {
		return nil, fmt.Errorf("sm: health blob length %d, want %d", len(b), 7+healthEntrySize*n)
	}
	entries := make([]HealthEntry, 0, n)
	off := 7
	for i := 0; i < n; i++ {
		entries = append(entries, HealthEntry{
			Link: topology.LinkID{
				Switch: int(binary.BigEndian.Uint16(b[off:])),
				Port:   int(b[off+2]),
			},
			Flaps:     int(binary.BigEndian.Uint16(b[off+3:])),
			HoldUntil: sim.Time(binary.BigEndian.Uint64(b[off+5:])),
		})
		off += healthEntrySize
	}
	return entries, nil
}

// snapshot renders the current fenced set as blob entries.
func (pm *PerfMgr) snapshot() []HealthEntry {
	entries := make([]HealthEntry, 0, len(pm.quarantined))
	for _, l := range pm.links {
		st := pm.state[l]
		if st != nil && st.quarantined {
			entries = append(entries, HealthEntry{Link: l, Flaps: st.flaps, HoldUntil: st.holdUntil})
		}
	}
	return entries
}

// updateBlob refreshes the SM's HA-synced quarantine state. An empty
// set still encodes (count zero) so a readmit propagates to standbys.
func (pm *PerfMgr) updateBlob() {
	if pm.sm == nil {
		return
	}
	pm.sm.HealthBlob = EncodeHealthBlob(pm.snapshot())
}

// Adopt installs quarantine state inherited through HA state sync: the
// listed links are fenced, their flap counts and hold-downs restored,
// and routes reprogrammed around them — a promoted standby keeps
// degraded links fenced instead of routing traffic back over them. An
// adopted link's score starts at the quarantine bar, so re-admission
// still requires the hold-down plus fresh decay evidence.
func (pm *PerfMgr) Adopt(entries []HealthEntry) {
	changed := false
	for _, e := range entries {
		st := pm.state[e.Link]
		if st == nil || st.quarantined {
			continue
		}
		st.quarantined = true
		st.flaps = e.Flaps
		st.holdUntil = e.HoldUntil
		if st.score < pm.cfg.QuarantineScore {
			st.score = pm.cfg.QuarantineScore
		}
		pm.quarantined[e.Link] = true
		changed = true
	}
	if changed {
		pm.reprogram()
	} else {
		pm.updateBlob()
	}
}
