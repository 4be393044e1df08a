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

// PerfConfig configures the performance manager. The zero value
// disables the health plane entirely (no sweeps, no traps,
// byte-identical to pre-health builds).
type PerfConfig struct {
	// SweepPeriod is the full-fabric PortCounters sweep interval; zero
	// disables the whole health plane.
	SweepPeriod sim.Time
	// QuarantineScore fences a link when its EWMA error score reaches
	// it; zero defaults to 4 (errors per sweep, both directions). A
	// fenced link is re-admitted once its score decays to
	// QuarantineScore/8 and its hold-down has expired.
	QuarantineScore float64
	// Damping makes the hold-down grow as probation·2^(flaps−1), capped
	// at 16×probation — the flap-damping defence against oscillating-BER
	// route-churn attacks. The probation is 4×SweepPeriod; off, every
	// quarantine serves it flat.
	Damping bool
	// TrapThreshold arms a switch-local threshold trap on every port:
	// when a port's symbol+receive error sum crosses it, the switch
	// notifies the PerfMgr immediately (the fast path) instead of
	// waiting for the next sweep. Zero disables traps.
	TrapThreshold uint64
}

// Enabled reports whether the health plane runs.
func (c PerfConfig) Enabled() bool { return c.SweepPeriod > 0 }

// Validate reports configuration errors.
func (c PerfConfig) Validate() error {
	if !c.Enabled() {
		if c != (PerfConfig{SweepPeriod: c.SweepPeriod}) {
			return fmt.Errorf("sm: health settings require SweepPeriod > 0")
		}
		return nil
	}
	if !(c.QuarantineScore >= 0) {
		return fmt.Errorf("sm: negative health score threshold")
	}
	return nil
}

// withDefaults returns c with its zero fields resolved as the field
// comments state.
func (c PerfConfig) withDefaults() PerfConfig {
	if c.QuarantineScore == 0 {
		c.QuarantineScore = 4
	}
	return c
}

// HealthEvent reports one quarantine transition.
type HealthEvent struct {
	Link topology.LinkID // canonical (lower-switch) half
	At   sim.Time
	// Quarantined true: the link was fenced; false: re-admitted.
	Quarantined bool
	Flaps       int // quarantine entries so far, this one included
}

// linkHealth is one watched link: its two ends, its scoring state and
// the port reads in flight against it.
type linkHealth struct {
	id             topology.LinkID        // canonical (lower-switch) half
	peer, peerPort int                    // the other half
	prev           [2]fabric.PortCounters // last reads of the two halves
	have           [2]bool
	score          float64
	quarantined    bool
	flaps          int
	holdUntil      sim.Time
	// samples holds the read pair in flight for the periodic sweep and for
	// a trap-triggered check, indexed by sampleSweep/sampleTrap: a sweep
	// can start while a check of the same link is still out, so each
	// counts its own errors and outstanding halves (remaining > 0: in
	// flight).
	samples [2]struct {
		errs      uint64
		remaining int
	}
	// trapSwitch and trapPort name the port whose trap the check in
	// flight re-arms when done.
	trapSwitch, trapPort int
}

// healthAlpha is the EWMA smoothing factor applied to each link's
// per-sweep error count: score = α·errs + (1−α)·score.
const healthAlpha = 0.5

// The two sampling contexts of linkHealth.samples, and of a read's tag.
const (
	sampleSweep = 0
	sampleTrap  = 1
)

// readTag packs what a port read's completion needs into the request
// tag: the link index, which half was read, and the sampling context.
func readTag(link, half, ctx int) uint64 { return uint64(link)<<2 | uint64(half)<<1 | uint64(ctx) }

// PerfMgr drives the sweep/score/quarantine loop.
type PerfMgr struct {
	sim  *sim.Simulator
	mesh *topology.Mesh
	disc *Discoverer
	sm   *SubnetManager // holds the synced quarantine state; may be nil in tests
	cfg  PerfConfig
	// trap is onTrap, the threshold trap every switch fires, made once.
	trap func(sw, port int)

	// paths is the directed-route path to each switch, by switch index
	// (nil: unreachable). links is every watched link in canonical order —
	// ascending switch, East before South — and firstLink[i] the index of
	// switch i's first, so a link is found from its switch without a map.
	paths     [][]byte
	links     []linkHealth
	firstLink []int
	// quarantined holds the canonical halves of fenced links.
	quarantined map[topology.LinkID]bool
	// fenced is the view QuarantinedEdges refills on every call.
	fenced []topology.EdgeHalf

	sweeping bool
	// outstanding counts the links the sweep in flight has yet to score.
	outstanding int
	stopped     bool
	stop        func()

	// Counters: sweeps, health_sweep_mads, health_unanswered,
	// quarantines, readmits, quarantine_refused, reroute_mads,
	// health_trap_mads, trap_rearm_mads.
	Counters metrics.Set[PerfCounter]
	ctr      [numPerfCounters]uint64 // Counters' cells
	// OnEvent, when non-nil, receives every quarantine transition.
	OnEvent func(HealthEvent)
	Events  []HealthEvent
}

// NewPerfMgr builds a performance manager sweeping mesh from the SM's
// node over disc (which must be the PerfMgr's own Discoverer — sharing
// the resweeper's would let its per-sweep Reset cancel PMA probes
// mid-flight), with cfg's defaults resolved. smgr, when non-nil, is
// handed the encoded quarantine state under HealthMagic so HA state
// sync carries it to standbys.
func NewPerfMgr(s *sim.Simulator, mesh *topology.Mesh, disc *Discoverer, smgr *SubnetManager, cfg PerfConfig) *PerfMgr {
	if !cfg.Enabled() {
		panic("sm: non-positive perf sweep period")
	}
	cfg = cfg.withDefaults()
	pm := &PerfMgr{
		sim:         s,
		mesh:        mesh,
		disc:        disc,
		sm:          smgr,
		cfg:         cfg,
		quarantined: make(map[topology.LinkID]bool),
		firstLink:   make([]int, len(mesh.Switches)+1),
		links:       make([]linkHealth, 0, 2*len(mesh.Switches)),
	}
	pm.Counters.Bind(&perfCounters, pm.ctr[:])
	var smNode int
	if smgr != nil {
		smNode = smgr.Node()
	}
	pm.paths = SwitchPaths(mesh, smNode)
	// Watch every inter-switch link once, keyed by its canonical
	// (lower-switch) half: East and South ports enumerate each link
	// exactly once on a mesh. HCA uplinks are not watched — they have
	// no alternate route, so quarantining one only disconnects the node.
	for i := range mesh.Switches {
		pm.firstLink[i] = len(pm.links)
		for _, p := range []int{topology.PortEast, topology.PortSouth} {
			if isHCA, peer, peerPort, ok := mesh.LinkPeer(i, p); ok && !isHCA {
				pm.links = append(pm.links, linkHealth{
					id:   topology.LinkID{Switch: i, Port: p},
					peer: peer, peerPort: peerPort,
				})
			}
		}
	}
	pm.firstLink[len(mesh.Switches)] = len(pm.links)
	return pm
}

// linkIndex returns the index of the watched link whose canonical half
// is l, or -1 (l may come off the wire: Adopt).
func (pm *PerfMgr) linkIndex(l topology.LinkID) int {
	if l.Switch < 0 || l.Switch >= len(pm.mesh.Switches) {
		return -1
	}
	for i := pm.firstLink[l.Switch]; i < pm.firstLink[l.Switch+1]; i++ {
		if pm.links[i].id.Port == l.Port {
			return i
		}
	}
	return -1
}

// Start arms the periodic sweep and, when configured, the switch-local
// threshold traps.
func (pm *PerfMgr) Start() {
	if pm.stop != nil {
		return
	}
	pm.stopped = false
	if pm.cfg.TrapThreshold > 0 {
		if pm.trap == nil {
			pm.trap = pm.onTrap
		}
		for _, sw := range pm.mesh.Switches {
			sw.SetHealthTrap(pm.cfg.TrapThreshold, pm.trap)
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

// QuarantinedEdges translates the fenced set into the GUID-and-port
// edge halves a Resweeper deletes from probe results (both directions of
// every fenced link), so a heal sweep never re-programs routes back
// over a link the health plane fenced. The slice is the PerfMgr's own
// view, refilled by the next call: a caller reads it and lets it go.
func (pm *PerfMgr) QuarantinedEdges() []topology.EdgeHalf {
	pm.fenced = pm.fenced[:0]
	for l := range pm.quarantined {
		pm.fenced = append(pm.fenced, topology.EdgeHalf{GUID: pm.mesh.Switches[l.Switch].GUID(), Port: l.Port})
		if isHCA, peer, peerPort, ok := pm.mesh.LinkPeer(l.Switch, l.Port); ok && !isHCA {
			pm.fenced = append(pm.fenced, topology.EdgeHalf{GUID: pm.mesh.Switches[peer].GUID(), Port: peerPort})
		}
	}
	return pm.fenced
}

func (pm *PerfMgr) tick() {
	if pm.stopped {
		return
	}
	if pm.sweeping {
		return
	}
	pm.sweeping = true
	pm.Counters.Add(PMSweeps, 1)
	pm.outstanding = len(pm.links)
	if pm.outstanding == 0 {
		pm.sweeping = false
		return
	}
	for i := range pm.links {
		pm.sampleLink(i, sampleSweep)
	}
}

// sampleLink reads both halves of link i on behalf of the sweep or of a
// trap-triggered check; when both reads have completed the clamped
// counter deltas are folded into the link's EWMA score and the context's
// continuation runs (sampled). A half whose probe timed out contributes
// nothing this round and keeps its baseline.
func (pm *PerfMgr) sampleLink(i, ctx int) {
	st := &pm.links[i]
	st.samples[ctx].errs, st.samples[ctx].remaining = 0, 2
	pm.readPort(st.id.Switch, st.id.Port, readTag(i, 0, ctx))
	pm.readPort(st.peer, st.peerPort, readTag(i, 1, ctx))
}

// readPort issues one PortCounters Get for a switch port; the response
// comes back through SMPDone under tag.
func (pm *PerfMgr) readPort(swIdx, port int, tag uint64) {
	path := pm.paths[swIdx]
	if path == nil {
		pm.portRead(tag, false, fabric.PortCounters{})
		return
	}
	pm.Counters.Add(PMHealthSweepMADs, 1)
	req := [1]byte{byte(port)}
	pm.disc.request(smpMethodGet, smpAttrPortCounters, path, req[:], pm.disc.MaxRetries, pm, tag)
}

// SMPDone implements SMPCompleter for the port reads.
func (pm *PerfMgr) SMPDone(tag uint64, status byte, data, _ []byte) {
	if pm.stopped || status != smpStatusOK || len(data) < portCountersSize {
		if status != smpStatusOK {
			pm.Counters.Add(PMHealthUnanswered, 1)
		}
		pm.portRead(tag, false, fabric.PortCounters{})
		return
	}
	pm.portRead(tag, true, ParsePortCounters(data))
}

// portRead accounts one completed half of a link sample.
func (pm *PerfMgr) portRead(tag uint64, ok bool, cur fabric.PortCounters) {
	i, half, ctx := int(tag>>2), tag>>1&1, int(tag&1)
	st := &pm.links[i]
	sample := &st.samples[ctx]
	if ok {
		if st.have[half] {
			sample.errs += portErrDelta(st.prev[half], cur)
		}
		st.prev[half], st.have[half] = cur, true
	}
	sample.remaining--
	if sample.remaining > 0 {
		return
	}
	st.score = healthAlpha*float64(sample.errs) + (1-healthAlpha)*st.score
	pm.sampled(i, ctx)
}

// sampled continues after link i's score was updated. The sweep waits
// for its last link, then decides in canonical link order and reprograms
// once if anything changed; a trap check decides its one link and
// re-arms the trap that started it.
func (pm *PerfMgr) sampled(i, ctx int) {
	if ctx == sampleTrap {
		if pm.stopped {
			return
		}
		if pm.decide(i) {
			pm.reprogram()
		}
		pm.rearm(pm.links[i].trapSwitch, pm.links[i].trapPort)
		return
	}
	pm.outstanding--
	if pm.outstanding > 0 {
		return
	}
	changed := false
	for i := range pm.links {
		if pm.decide(i) {
			changed = true
		}
	}
	if changed {
		pm.reprogram()
	}
	pm.sweeping = false
}

// holdFor computes the hold-down a link entering its flaps-th
// quarantine serves before re-admission is considered: a probation of
// four sweeps, doubled per earlier flap under Damping up to 16
// probations.
func (pm *PerfMgr) holdFor(flaps int) sim.Time {
	probation := 4 * pm.cfg.SweepPeriod
	if !pm.cfg.Damping {
		return probation
	}
	return probation << min(flaps-1, 4)
}

// decide applies the quarantine/re-admission policy to one link and
// reports whether the fenced set changed (the caller reprograms).
func (pm *PerfMgr) decide(i int) bool {
	st := &pm.links[i]
	l := st.id
	now := pm.sim.Now()
	if !st.quarantined {
		if st.score < pm.cfg.QuarantineScore {
			return false
		}
		// Never let the health plane partition the fabric: an attacker
		// degrading many links must not be able to talk the PerfMgr into
		// fencing the last path. A quarantine that would leave any
		// destination unroutable is refused; the link stays in service
		// (degraded beats disconnected).
		if !pm.routesComplete(l) {
			pm.Counters.Add(PMQuarantineRefused, 1)
			return false
		}
		st.quarantined = true
		st.flaps++
		st.holdUntil = now + pm.holdFor(st.flaps)
		pm.quarantined[l] = true
		pm.Counters.Add(PMQuarantines, 1)
		pm.emit(HealthEvent{Link: l, At: now, Quarantined: true, Flaps: st.flaps})
		return true
	}
	// Quarantined: a fenced link carries no traffic, so its score decays
	// by (1−α) per sweep; re-admission needs the hold-down served AND
	// the score below the bar.
	if now >= st.holdUntil && st.score <= pm.cfg.QuarantineScore/8 {
		st.quarantined = false
		delete(pm.quarantined, l)
		pm.Counters.Add(PMReadmits, 1)
		pm.emit(HealthEvent{Link: l, At: now, Quarantined: false, Flaps: st.flaps})
		return true
	}
	return false
}

// routesComplete reports whether fencing link l beside the quarantined
// set still leaves every switch a route to every assigned LID. The
// PerfMgr fences only inter-switch links and every HCA holds its LID, so
// that is whether the surviving switch graph stays connected.
func (pm *PerfMgr) routesComplete(l topology.LinkID) bool {
	up := func(near, far topology.LinkID) bool {
		return near != l && far != l && !pm.quarantined[near] && !pm.quarantined[far]
	}
	var t topology.Tree
	t.SearchMesh(pm.mesh.W, pm.mesh.H, 0, up)
	return t.Reached() == len(pm.mesh.Switches)
}

// reprogram recomputes forwarding around the fenced set, writes every
// switch, and refreshes the HA-synced quarantine blob. Each route write
// is charged as one configuration MAD.
func (pm *PerfMgr) reprogram() {
	switches := pm.mesh.ProgramAvoiding(nil, pm.quarantined)
	pm.Counters.Add(PMRerouteMADs, uint64(switches)*uint64(len(pm.mesh.HCAs)))
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
func (pm *PerfMgr) onTrap(swIdx, port int) {
	if pm.stopped {
		return
	}
	// The trap notice is charged as one MAD; handling is deferred a tick
	// so the fabric finishes delivering the packet that struck out.
	pm.Counters.Add(PMHealthTrapMADs, 1)
	pm.sim.Schedule(0, func() { pm.handleTrap(swIdx, port) })
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
	i := pm.linkIndex(l)
	if i < 0 || pm.sweeping || pm.links[i].samples[sampleTrap].remaining > 0 {
		// A sweep or targeted check already in flight will score this
		// strike; just re-arm.
		pm.rearm(swIdx, port)
		return
	}
	pm.links[i].trapSwitch, pm.links[i].trapPort = swIdx, port
	pm.sampleLink(i, sampleTrap)
}

// rearm re-enables the port's threshold trap with a PortCounters Set.
func (pm *PerfMgr) rearm(swIdx, port int) {
	path := pm.paths[swIdx]
	if path == nil {
		return
	}
	pm.Counters.Add(PMTrapRearmMADs, 1)
	pm.disc.Query(smpMethodSet, smpAttrPortCounters, path, []byte{byte(port)}, QueryFunc(func(byte, []byte) {}), 0)
}

// SwitchPaths computes the directed-route path (egress ports, as SMPs
// carry them) from the SM's node to every switch of a healthy mesh, by
// switch index, nil when unreachable — the paths the discovery sweep
// would find, so PMA and audit probes travel the routes a real sweep
// uses. They are read off one search from the SM's switch (topology's
// routing rule), which reaches each switch along the lexicographically
// least shortest port sequence.
func SwitchPaths(mesh *topology.Mesh, smNode int) [][]byte {
	var t topology.Tree
	t.SearchMesh(mesh.W, mesh.H, smNode, func(_, _ topology.LinkID) bool { return true })
	return t.Paths()
}

// --- HA quarantine blob -------------------------------------------------

// HealthMagic opens every encoded quarantine-state blob and names the
// health plane's sync state on its SM (SetSyncState).
const HealthMagic = "IBHQ"

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
	copy(b, HealthMagic)
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

// ParseHealthBlob decodes an encoded quarantine state, rejecting
// truncated, mis-tagged, or mis-sized blobs.
func ParseHealthBlob(b []byte) ([]HealthEntry, error) {
	if len(b) < 7 {
		return nil, fmt.Errorf("sm: truncated health blob")
	}
	if string(b[:len(HealthMagic)]) != HealthMagic {
		return nil, fmt.Errorf("sm: not a health blob")
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
	for i := range pm.links {
		if st := &pm.links[i]; st.quarantined {
			entries = append(entries, HealthEntry{Link: st.id, Flaps: st.flaps, HoldUntil: st.holdUntil})
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
	pm.sm.SetSyncState(HealthMagic, EncodeHealthBlob(pm.snapshot()))
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
		i := pm.linkIndex(e.Link)
		if i < 0 || pm.links[i].quarantined {
			continue
		}
		st := &pm.links[i]
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
