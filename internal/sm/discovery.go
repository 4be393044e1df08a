package sm

import (
	"encoding/binary"
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// In-band subnet discovery (IBA 14): at power-on no LIDs are assigned and
// no forwarding tables exist, so the Subnet Manager sweeps the fabric
// with directed-route SMPs — management packets forwarded by an explicit
// per-hop port path rather than by LID. The sweep discovers every switch
// and channel adapter, assigns LIDs, and programs the switches' linear
// forwarding tables, all through the same links the data traffic will
// later use. Set operations are guarded by the M_Key, making Table 3's
// M_Key threat ("controls almost everything in a subnet") concrete: with
// the key an SMP can re-route the whole fabric; without it every Set is
// rejected.
//
// SMP wire layout (carried in the packet payload, VL 15):
//
//	 0     madType (0xD2 = directed-route SMP)
//	 1     method   (1 Get, 2 Set, 3 GetResp)
//	 2     attribute (1 NodeInfo, 2 SetLID, 3 SetRoute)
//	 3     status   (0 OK, 1 bad M_Key, 2 bad hop, 3 unsupported)
//	 4     hopCount — number of switch-egress hops in the path
//	 5     hopPointer
//	 6     direction (0 outbound, 1 returning)
//	 8-11  txID
//	12-19  M_Key (checked on Set)
//	20-35  initial path: egress port at each switch
//	36-51  return path: ingress ports recorded hop by hop
//	52-    attribute data
const (
	madTypeDRSMP = 0xD2

	smpMethodGet     = 1
	smpMethodSet     = 2
	smpMethodGetResp = 3

	smpAttrNodeInfo = 1
	smpAttrSetLID   = 2
	smpAttrSetRoute = 3

	smpStatusOK          = 0
	smpStatusBadMKey     = 1
	smpStatusBadHop      = 2
	smpStatusUnsupported = 3

	smpOffMethod  = 1
	smpOffAttr    = 2
	smpOffStatus  = 3
	smpOffHopCnt  = 4
	smpOffHopPtr  = 5
	smpOffDir     = 6
	smpOffTxID    = 8
	smpOffMKey    = 12
	smpOffInit    = 20
	smpOffRet     = 36
	smpOffData    = 52
	smpMaxHops    = 16
	smpHeaderSize = smpOffData
	smpDataSize   = 16
)

// nodeTypes in NodeInfo responses.
const (
	nodeTypeSwitch = 1
	nodeTypeCA     = 2
)

// newSMP builds a request SMP by value — zero but for type, method,
// attribute, hop count, TID, M_Key and initial path — so a caller stages
// it on its stack or in its request slot.
func newSMP(method, attr byte, txID uint32, mkey keys.MKey, path []byte) (pl [smpTotalSize]byte) {
	pl[0] = madTypeDRSMP
	pl[smpOffMethod] = method
	pl[smpOffAttr] = attr
	pl[smpOffHopCnt] = byte(len(path))
	binary.BigEndian.PutUint32(pl[smpOffTxID:], txID)
	binary.BigEndian.PutUint64(pl[smpOffMKey:], uint64(mkey))
	copy(pl[smpOffInit:smpOffInit+smpMaxHops], path)
	return pl
}

// newResponse stages the response to the request in pl: the request's
// header turned around (GetResp, returning, status OK) over a zeroed
// attribute data area.
func newResponse(pl []byte) (resp [smpTotalSize]byte) {
	copy(resp[:smpOffData], pl)
	resp[smpOffMethod] = smpMethodGetResp
	resp[smpOffDir] = 1
	resp[smpOffStatus] = smpStatusOK
	return resp
}

// reseal writes a transit hop's edit — b over the payload at off: the
// hop pointer and, outbound, the return-path slot — and refreshes the
// packet CRCs; a transit switch does this once per DR-SMP. A MAD's
// payload is the window into its own sealed image (Params.NewMAD), so
// icrc.PatchPayload writes the edit there and updates both CRCs from the
// bytes it changed, without re-marshalling the headers or reading the
// rest of the image. A tainted delivery (bit errors since its CRCs were
// last checked) and a packet PatchPayload refuses — the bit-error model's
// re-parsed copy owns no image — are resealed whole by Seal, which gives
// the latter a fresh image.
func (a *SwitchAgent) reseal(d *fabric.Delivery, off int, b []byte) {
	if !d.Tainted && icrc.PatchPayload(d.Pkt, off, b) {
		a.patched++
		return
	}
	a.sealed++
	copy(d.Pkt.Payload[off:], b)
	if err := icrc.Seal(d.Pkt); err != nil {
		panic(fmt.Sprintf("sm: resealing SMP: %v", err))
	}
}

// TransitReseals reports how the agent refreshed the CRCs of the DR-SMPs
// it forwarded: patched from the edit, or sealed whole.
func (a *SwitchAgent) TransitReseals() (patched, sealed int) {
	return int(a.patched), int(a.sealed)
}

// isDRSMP reports whether a delivery carries a directed-route SMP.
func isDRSMP(d *fabric.Delivery) bool {
	return d.Class == fabric.ClassManagement &&
		len(d.Pkt.Payload) >= smpHeaderSize && d.Pkt.Payload[0] == madTypeDRSMP
}

// tidKey identifies one requester's transaction at a responder: SMP
// transaction IDs are allocated per requesting HCA, so the pair is
// unique within the dedup horizon.
type tidKey struct {
	lid  packet.LID
	txID uint32
}

// tidSet is a bounded FIFO set of recently seen transactions: the last
// tidSetCap keys added, held in a fixed ring with a map for lookup, from
// which an eviction deletes just the key it drops. The bound keeps a
// responder's memory constant no matter how long the run, and once the
// window has filled an add allocates nothing; an entry old enough to
// have been evicted is also old enough that its requester's retry budget
// is long exhausted.
type tidSet struct {
	seen  map[tidKey]struct{}
	order [tidSetCap]tidKey
	next  int // ring index of the oldest key
	fill  int // keys in the window
}

func newTIDSet() *tidSet {
	return &tidSet{seen: make(map[tidKey]struct{}, tidSetCap)}
}

// add records k and reports whether it was already present.
func (s *tidSet) add(k tidKey) bool {
	if _, dup := s.seen[k]; dup {
		return true
	}
	if s.fill == tidSetCap {
		delete(s.seen, s.order[s.next])
		s.order[s.next] = k
		s.next = (s.next + 1) % tidSetCap
	} else {
		s.order[(s.next+s.fill)%tidSetCap] = k
		s.fill++
	}
	s.seen[k] = struct{}{}
	return false
}

// tidSetCap bounds each responder's duplicate-detection window.
const tidSetCap = 128

// SwitchAgent is the subnet management agent of one switch: it forwards
// directed-route SMPs by path and executes Get/Set operations addressed
// to the switch. Set operations require the agent's M_Key.
type SwitchAgent struct {
	MKey keys.MKey
	// Enforce, when non-nil, lets the agent answer enforcement-state
	// audit SMPs (audit.go) against the mesh's filter; without it those
	// attributes return Unsupported.
	Enforce *enforce.Filter
	// DedupTIDs enables at-most-once SMP execution: a request repeating
	// a recently seen (requester LID, TID) pair is dropped instead of
	// re-executed. During heal storms a retransmitted probe and its
	// delayed original can both arrive; without dedup a Set executes
	// twice. Requesters must not recycle a TID from the same LID within
	// the dedup window — the discoverer's monotone per-instance TIDs
	// satisfy this within a sweep. Default off.
	DedupTIDs bool
	// patched and sealed count the transit reseals of each kind
	// (TransitReseals); they are not counters a CSV reports, and at 32
	// bits they keep the agent in its 48-byte allocation size class.
	patched, sealed uint32
	tids            *tidSet
}

// AttachSwitchAgents installs a SwitchAgent on every switch of a mesh.
// The agents are one allocation.
func AttachSwitchAgents(m *topology.Mesh, mkey keys.MKey) []*SwitchAgent {
	slab := make([]SwitchAgent, len(m.Switches))
	agents := make([]*SwitchAgent, len(m.Switches))
	for i, sw := range m.Switches {
		slab[i] = SwitchAgent{MKey: mkey}
		agents[i] = &slab[i]
		sw.SetMADHandler(agents[i])
	}
	return agents
}

// HandleMAD implements fabric.MADHandler.
func (a *SwitchAgent) HandleMAD(sw *fabric.Switch, inPort int, d *fabric.Delivery) bool {
	if !isDRSMP(d) {
		return false // not ours: fall through to LID routing
	}
	fr, err := parseSMP(d.Pkt.Payload)
	if err != nil {
		// Truncated or hop-field-corrupted SMP: consuming it here (rather
		// than indexing the path arrays with unchecked bytes) keeps a
		// hostile MAD from crashing the switch.
		sw.Counters.Add(fabric.SwSMPMalformed, 1)
		d.ReturnCredit()
		return true
	}
	pl := d.Pkt.Payload
	switch fr.Dir {
	case 0: // outbound
		if fr.HopPtr < fr.HopCnt {
			// Transit hop: advance the hop pointer, record the return
			// port and forward along the initial path. The edit is one
			// window from the hop pointer to the return-path slot.
			var w [smpOffRet + smpMaxHops - smpOffHopPtr]byte
			n := copy(w[:], pl[smpOffHopPtr:smpOffRet+fr.HopPtr+1])
			w[0], w[n-1] = byte(fr.HopPtr+1), byte(inPort)
			a.reseal(d, smpOffHopPtr, w[:n])
			sw.SendRaw(int(pl[smpOffInit+fr.HopPtr]), d)
			return true
		}
		// This switch is the target.
		if a.DedupTIDs {
			if a.tids == nil {
				a.tids = newTIDSet()
			}
			if a.tids.add(tidKey{d.Pkt.LRH.SLID, fr.TxID}) {
				sw.Counters.Add(fabric.SwSMPDupRequests, 1)
				d.ReturnCredit()
				return true
			}
		}
		a.execute(sw, inPort, d, fr)
		return true
	default: // returning
		if fr.HopPtr > 0 {
			out := int(pl[smpOffRet+fr.HopPtr-1])
			a.reseal(d, smpOffHopPtr, []byte{byte(fr.HopPtr - 1)})
			sw.SendRaw(out, d)
			return true
		}
		// A response with an exhausted pointer should already be at
		// the requester's HCA; drop defensively.
		sw.Counters.Add(fabric.SwSMPMisrouted, 1)
		d.ReturnCredit()
		return true
	}
}

// execute runs a Get/Set against this switch and sends the response back
// through the ingress port.
func (a *SwitchAgent) execute(sw *fabric.Switch, inPort int, d *fabric.Delivery, fr smpFrame) {
	pl := d.Pkt.Payload
	resp := newResponse(pl)
	// Record the target's own ingress port in the return-path slot after
	// the transit hops: the SM needs it to know which of this switch's
	// ports points back toward it.
	resp[smpOffRet+fr.HopCnt] = byte(inPort)
	data := resp[smpOffData:]

	switch {
	case fr.Method == smpMethodGet && fr.Attr == smpAttrNodeInfo:
		data[0] = nodeTypeSwitch
		data[1] = byte(sw.NumPorts())
		binary.BigEndian.PutUint64(data[2:], sw.GUID())
		sw.Counters.Add(fabric.SwSMPNodeInfo, 1)

	case fr.Method == smpMethodSet && fr.Attr == smpAttrSetRoute:
		if fr.MKey != a.MKey {
			resp[smpOffStatus] = smpStatusBadMKey
			sw.Counters.Add(fabric.SwSMPMKeyViolations, 1)
			break
		}
		lid := packet.LID(binary.BigEndian.Uint16(pl[smpOffData:]))
		port := int(pl[smpOffData+2])
		if port < 0 || port >= sw.NumPorts() {
			resp[smpOffStatus] = smpStatusBadHop
			break
		}
		sw.SetRoute(lid, port)
		sw.Counters.Add(fabric.SwSMPRoutesSet, 1)

	case fr.Method == smpMethodGet && fr.Attr == smpAttrPortCounters:
		port := int(pl[smpOffData])
		if port < 0 || port >= sw.NumPorts() {
			resp[smpOffStatus] = smpStatusBadHop
			break
		}
		encodePortCounters(data, sw.PortHealth(port))
		sw.Counters.Add(fabric.SwSMPPortCounters, 1)

	case fr.Method == smpMethodSet && fr.Attr == smpAttrPortCounters:
		// PerfMgr re-arms the switch's threshold trap for one port after
		// consuming a trap notice (IBA PortCounters writes reset/rearm).
		if fr.MKey != a.MKey {
			resp[smpOffStatus] = smpStatusBadMKey
			sw.Counters.Add(fabric.SwSMPMKeyViolations, 1)
			break
		}
		port := int(pl[smpOffData])
		if port < 0 || port >= sw.NumPorts() {
			resp[smpOffStatus] = smpStatusBadHop
			break
		}
		sw.RearmHealthTrap(port)
		sw.Counters.Add(fabric.SwSMPTrapRearm, 1)

	case fr.Method == smpMethodGet && fr.Attr == smpAttrAuditState:
		a.auditState(sw, resp[:])

	case fr.Method == smpMethodGet && fr.Attr == smpAttrAuditEntries:
		a.auditEntries(sw, pl, resp[:])

	case fr.Method == smpMethodSet && fr.Attr == smpAttrAuditRepair:
		if fr.MKey != a.MKey {
			resp[smpOffStatus] = smpStatusBadMKey
			sw.Counters.Add(fabric.SwSMPMKeyViolations, 1)
			break
		}
		a.auditRepair(sw, pl, resp[:])

	default:
		resp[smpOffStatus] = smpStatusUnsupported
	}

	out := sw.Params().NewMAD(d.Pkt.LRH.SLID, packet.LIDPermissive, resp[:])
	d.ReturnCredit()
	sw.SendRaw(inPort, out)
}

// NodeAgent is the subnet management agent on a channel adapter: it
// answers NodeInfo and accepts M_Key-guarded LID assignment.
type NodeAgent struct {
	HCA  *fabric.HCA
	MKey keys.MKey
	// DedupTIDs mirrors SwitchAgent.DedupTIDs for CA-side SMPs: a
	// duplicate (requester LID, TID) request is dropped, not re-executed.
	DedupTIDs bool
	tids      *tidSet
}

// AttachNodeAgent registers an SMA with the HCA's management receive
// path: it answers the directed-route requests arriving there.
func AttachNodeAgent(hca *fabric.HCA, mkey keys.MKey) *NodeAgent {
	return &AttachNodeAgents([]*fabric.HCA{hca}, mkey)[0]
}

// AttachNodeAgents registers an SMA with each of hcas, the agents one
// allocation.
func AttachNodeAgents(hcas []*fabric.HCA, mkey keys.MKey) []NodeAgent {
	agents := make([]NodeAgent, len(hcas))
	for i, hca := range hcas {
		agents[i] = NodeAgent{HCA: hca, MKey: mkey}
		dispatcherOf(hca).sma = &agents[i]
	}
	return agents
}

// receive answers one directed-route request.
func (a *NodeAgent) receive(d *fabric.Delivery) {
	fr, err := parseSMP(d.Pkt.Payload)
	if err != nil {
		a.HCA.Counters.Add(fabric.HCASMPMalformed, 1)
		return
	}
	pl := d.Pkt.Payload
	if fr.HopPtr != fr.HopCnt {
		a.HCA.Counters.Add(fabric.HCASMPMisrouted, 1)
		return
	}
	if a.DedupTIDs {
		if a.tids == nil {
			a.tids = newTIDSet()
		}
		if a.tids.add(tidKey{d.Pkt.LRH.SLID, fr.TxID}) {
			a.HCA.Counters.Add(fabric.HCASMPDupRequests, 1)
			return
		}
	}
	resp := newResponse(pl)
	data := resp[smpOffData:]

	switch {
	case fr.Method == smpMethodGet && fr.Attr == smpAttrNodeInfo:
		data[0] = nodeTypeCA
		data[1] = 1
		binary.BigEndian.PutUint64(data[2:], a.HCA.GUID())
		binary.BigEndian.PutUint16(data[10:], uint16(a.HCA.LID()))

	case fr.Method == smpMethodGet && fr.Attr == smpAttrPortCounters:
		encodePortCounters(data, a.HCA.PortHealth())

	case fr.Method == smpMethodSet && fr.Attr == smpAttrSetLID:
		if fr.MKey != a.MKey {
			resp[smpOffStatus] = smpStatusBadMKey
			a.HCA.Counters.Add(fabric.HCASMPMKeyViolations, 1)
			break
		}
		a.HCA.SetLID(packet.LID(binary.BigEndian.Uint16(pl[smpOffData:])))
		a.HCA.Counters.Add(fabric.HCASMPLIDSet, 1)

	default:
		resp[smpOffStatus] = smpStatusUnsupported
	}
	a.HCA.Send(a.HCA.Params().NewMAD(a.HCA.LID(), packet.LIDPermissive, resp[:]))
}

// DiscoveredNode is one fabric element found by the sweep.
type DiscoveredNode struct {
	GUID     uint64
	IsSwitch bool
	NumPorts int
	Path     []byte // directed-route path from the SM
	LID      packet.LID
}

// DiscoveredTopology is the result of a discovery sweep. It, its node
// records and their paths belong to the Discoverer, which clears and
// refills them on the next sweep: a caller that keeps any of it past
// Reset copies it.
type DiscoveredTopology struct {
	Switches []*DiscoveredNode
	CAs      []*DiscoveredNode
	// Edges maps a switch GUID and egress port to the neighbour GUID.
	Edges map[uint64]map[int]uint64
	// Probes counts SMPs issued; Retries counts retransmissions of
	// probes whose earlier attempts went unanswered; Timeouts counts
	// probes that stayed unanswered after every retry (dead ports).
	Probes   int
	Retries  int
	Timeouts int
}

// Discoverer drives an in-band sweep from one HCA.
type Discoverer struct {
	sim     *sim.Simulator
	hca     *fabric.HCA
	mkey    keys.MKey
	timeout sim.Time

	// MaxRetries bounds how many times a lost or timed-out SMP is
	// retransmitted before the probe is declared dead; the per-attempt
	// deadline doubles each retry. SMPs are unacknowledged datagrams, so
	// without retries a single MAD loss (congestion, injected fault)
	// permanently hides a live subtree from the sweep.
	MaxRetries int

	// SetTimeoutMult scales the probe timeout for Set operations (which
	// queue back to back on the SM's uplink and must not be misread as
	// dead ports); zero means the default factor of 100. A re-sweeping
	// SM lowers this so a lost Set retries quickly.
	SetTimeoutMult int

	// Pins maps CA GUIDs to LIDs that must be preserved across sweeps.
	// Unpinned CAs receive the lowest free LIDs in discovery order; with
	// no pins that is the classic sequential 1, 2, ... assignment. A
	// re-sweeping SM pins every previously assigned LID so healing a
	// fabric never renumbers live endpoints.
	Pins map[uint64]packet.LID

	// KnownEdges, when non-nil, is the edge set of the last healthy view
	// of the fabric; OnLostEdge fires each time a probe across one of
	// those edges terminally times out during the current sweep — the
	// earliest in-band signal that a link or its far-side device died.
	KnownEdges EdgeSet
	OnLostEdge func(fromGUID uint64, port int)

	// ring is the outstanding-request table: a power-of-two slice of value
	// slots in which the request with transaction ID t lives at
	// ring[t&(len-1)], so a response finds its request by index. It is
	// made at the first request and doubles when a new TID lands on a slot
	// still pending; outstanding counts the pending slots.
	ring        []request
	outstanding int
	txSeq       uint32
	topo        *DiscoveredTopology
	// past sums the request counts of the sweeps Reset has closed (Stats).
	past struct{ probes, retries, timeouts int }
	seen map[uint64]*DiscoveredNode
	// A sweep's working set, kept for the next one (Reset), so a sweep
	// allocates only while it outgrows every sweep before it: the node
	// probes, each request tagged with its index; their directed routes
	// end to end, each probe's a window; the node records handed out,
	// with the spare ones past len; and the inner maps Reset took out of
	// the topology's edge set.
	probes    []probe
	paths     []byte
	nodes     []*DiscoveredNode
	freeEdges []map[int]uint64
	// done remembers the last tidSetCap answered TIDs (a FIFO, doneN
	// answers so far) so a second response to the same TID — the delayed
	// original arriving after a retransmit was already answered — is
	// recognised as a duplicate rather than mistaken for a stray.
	done  [tidSetCap]uint32
	doneN uint64
}

// SMPCompleter receives the outcome of one SMP request: the tag the
// requester passed, the response status (0xFF when every attempt timed
// out) and, on a response, its attribute data and return path. data and
// retPath are windows into the delivered packet's image, valid until the
// call returns; a completer copies what it keeps. A requester that
// outlives its requests — a plane issuing the same probe every sweep —
// is its own completer and tells its requests apart by tag, so issuing
// one allocates nothing.
type SMPCompleter interface {
	SMPDone(tag uint64, status byte, data, retPath []byte)
}

// QueryFunc lets a plain callback complete a one-off request: it ignores
// the tag and the return path. A func value converts to the interface
// without allocating, but a closure that captures anything is allocated
// where it is written.
type QueryFunc func(status byte, data []byte)

// SMPDone implements SMPCompleter.
func (f QueryFunc) SMPDone(_ uint64, status byte, data, _ []byte) { f(status, data) }

// request is one slot of the outstanding-request table. It holds the SMP
// by value: transit switches edit each attempt's own image in place (hop
// pointer, return path), so a retransmission is a fresh MAD built from
// the slot.
type request struct {
	pl      [smpTotalSize]byte
	txID    uint32
	pending bool
	attempt uint8    // retransmissions so far
	retries int      // retransmission budget
	timeout sim.Time // first attempt's deadline; doubles per attempt
	timer   sim.Event
	to      SMPCompleter
	tag     uint64
}

// ringInit is the table's first size (about 2 KiB); a plane's largest
// burst — a PerfMgr sweep's two reads per link, a configure pass's Sets —
// is reached in a few doublings and the table then stays that size.
const ringInit = 16

// NewDiscoverer prepares a sweep from hca and registers it with the HCA's
// management receive path, which hands it the directed-route responses
// arriving there. timeout bounds each unanswered probe (dead port
// detection).
func NewDiscoverer(s *sim.Simulator, hca *fabric.HCA, mkey keys.MKey, timeout sim.Time) *Discoverer {
	d := &Discoverer{
		sim:     s,
		hca:     hca,
		mkey:    mkey,
		timeout: timeout,
		seen:    make(map[uint64]*DiscoveredNode),
		topo:    &DiscoveredTopology{Edges: make(map[uint64]map[int]uint64)},
	}
	dispatcherOf(hca).disc = d
	return d
}

// receive matches one directed-route response to its request.
func (d *Discoverer) receive(dv *fabric.Delivery) {
	fr, err := parseSMP(dv.Pkt.Payload)
	if err != nil {
		d.hca.Counters.Add(fabric.HCASMPMalformed, 1)
		return
	}
	pl := dv.Pkt.Payload
	rq := d.lookup(fr.TxID)
	if rq == nil {
		// Never process a response twice: a TID we already answered is a
		// duplicate (retransmit raced its delayed original); anything
		// else is a stray — a response after the terminal timeout, or
		// another discoverer's traffic on this HCA, which the dispatcher
		// hands the newest discoverer (see dispatcher.ReceiveMAD).
		if d.answered(fr.TxID) {
			d.hca.Counters.Add(fabric.HCASMPDupResponses, 1)
		} else {
			d.hca.Counters.Add(fabric.HCASMPLateResponses, 1)
		}
		return
	}
	// The completer may issue requests, which can reuse or move this
	// slot: take what the call needs and retire the slot first.
	to, tag, timer := rq.to, rq.tag, rq.timer
	d.retire(rq)
	d.done[d.doneN%tidSetCap] = fr.TxID
	d.doneN++
	d.sim.Cancel(timer)
	to.SMPDone(tag, fr.Status, pl[smpOffData:], pl[smpOffRet:smpOffRet+smpMaxHops])
}

// at returns the slot txID indexes.
func (d *Discoverer) at(txID uint32) *request { return &d.ring[txID&uint32(len(d.ring)-1)] }

// lookup returns the pending request with the given TID, or nil.
func (d *Discoverer) lookup(txID uint32) *request {
	if len(d.ring) == 0 {
		return nil
	}
	if rq := d.at(txID); rq.pending && rq.txID == txID {
		return rq
	}
	return nil
}

// retire frees a pending slot.
func (d *Discoverer) retire(rq *request) {
	*rq = request{}
	d.outstanding--
}

// answered reports whether txID is among the last tidSetCap answered.
func (d *Discoverer) answered(txID uint32) bool {
	n := d.doneN
	if n > tidSetCap {
		n = tidSetCap
	}
	for _, t := range d.done[:n] {
		if t == txID {
			return true
		}
	}
	return false
}

// slot returns the free slot txID indexes, doubling the table (pending
// requests keep their TIDs and move to their new index) until that slot
// is free: a request is never dropped to make room.
func (d *Discoverer) slot(txID uint32) *request {
	if d.ring == nil {
		d.ring = make([]request, ringInit)
	}
	for d.at(txID).pending {
		old := d.ring
		d.ring = make([]request, 2*len(old))
		for i := range old {
			if old[i].pending {
				*d.at(old[i].txID) = old[i]
			}
		}
	}
	return d.at(txID)
}

// send issues one SMP and registers its callback; cb receives status
// 0xFF when every attempt times out. Discovery probes use the short
// dead-port timeout; configuration Sets — hundreds of which are issued
// back to back and queue behind one another on the SM's uplink — use a
// generous deadline so a slow acknowledgement is not misread as a dead
// port. An unanswered attempt is retransmitted up to MaxRetries times
// with the deadline doubling each attempt (exponential backoff), so a
// single lost MAD cannot hide a live subtree; only the terminal failure
// counts as a Timeout.
func (d *Discoverer) send(method, attr byte, path []byte, data []byte, cb QueryFunc) {
	d.request(method, attr, path, data, d.MaxRetries, cb, 0)
}

// request is send with an explicit retry budget and a typed completion:
// to.SMPDone(tag, …) is called exactly once, with the response or the
// terminal timeout. Nothing but the MAD itself is allocated.
func (d *Discoverer) request(method, attr byte, path []byte, data []byte, maxRetries int, to SMPCompleter, tag uint64) {
	if len(path) > smpMaxHops {
		panic("sm: directed route exceeds max hops")
	}
	timeout := d.timeout
	if method == smpMethodSet {
		mult := d.SetTimeoutMult
		if mult <= 0 {
			mult = 100
		}
		timeout = d.timeout * sim.Time(mult)
	}
	d.txSeq++
	rq := d.slot(d.txSeq)
	*rq = request{
		pl:      newSMP(method, attr, d.txSeq, d.mkey, path),
		txID:    d.txSeq,
		pending: true,
		retries: maxRetries,
		timeout: timeout,
		to:      to,
		tag:     tag,
	}
	copy(rq.pl[smpOffData:], data)
	d.outstanding++
	d.topo.Probes++
	d.arm(rq)
	d.xmit(rq)
}

// xmit transmits one attempt of rq as a fresh MAD.
func (d *Discoverer) xmit(rq *request) {
	d.hca.Send(d.hca.Params().NewMAD(d.hca.LID(), packet.LIDPermissive, rq.pl[:]))
}

// arm starts the current attempt's deadline.
func (d *Discoverer) arm(rq *request) {
	rq.timer = d.sim.ScheduleCall(rq.timeout<<rq.attempt, (*requestTimeout)(d), nil, uint64(rq.txID))
}

// requestTimeout fires when an attempt's deadline passes unanswered: a
// named handler type over Discoverer (see sim.Handler) whose operand is
// the TID, so arming a deadline allocates nothing.
type requestTimeout Discoverer

func (h *requestTimeout) Fire(_ any, txID uint64) {
	d := (*Discoverer)(h)
	rq := d.lookup(uint32(txID))
	if rq == nil {
		return
	}
	if int(rq.attempt) < rq.retries {
		rq.attempt++
		d.topo.Retries++
		d.xmit(rq)
		d.arm(rq)
		return
	}
	to, tag := rq.to, rq.tag
	d.retire(rq)
	d.topo.Timeouts++
	to.SMPDone(tag, 0xFF, nil, nil)
}

// Discover sweeps the fabric, assigns sequential LIDs to every CA,
// programs shortest-path forwarding tables on every switch, and finally
// invokes done with the discovered topology. It must be called before
// running the simulator; the whole protocol executes in simulated time.
//
// The programmed routes are BFS shortest paths over the discovered graph;
// unlike the dimension-ordered tables topology.NewMesh installs they are
// not guaranteed deadlock-free under sustained saturation, so the
// measured experiments all run on the static DOR configuration.
func (d *Discoverer) Discover(done func(*DiscoveredTopology)) {
	d.Probe(func(*DiscoveredTopology) { d.configure(done) })
}

// Probe runs the discovery sweep only — no LID assignment, no route
// programming — and reports the discovered graph. A re-sweeping SM
// probes every period but only pays for configuration when the graph
// actually changed.
func (d *Discoverer) Probe(done func(*DiscoveredTopology)) {
	// Start with the switch the SM's HCA is attached to (empty path).
	d.probeNode(0, 0, 0, 0, done)
}

// Configure assigns LIDs and programs routes from the last completed
// sweep, honouring Pins.
func (d *Discoverer) Configure(done func(*DiscoveredTopology)) { d.configure(done) }

// Reset clears sweep state so the Discoverer can sweep the fabric again.
// The delivery hook installed at construction is reused, so repeated
// sweeps do not grow the HCA's delivery chain; txIDs stay monotonic
// across sweeps, so a straggler response from a previous sweep can never
// complete a new probe. The topology, its node records and paths are
// cleared in place, not remade (DiscoveredTopology).
func (d *Discoverer) Reset() {
	for i := range d.ring {
		if rq := &d.ring[i]; rq.pending {
			d.sim.Cancel(rq.timer)
			d.retire(rq)
		}
	}
	clear(d.seen)
	d.probes, d.paths, d.nodes = d.probes[:0], d.paths[:0], d.nodes[:0]
	topo := d.topo
	d.past.probes += topo.Probes
	d.past.retries += topo.Retries
	d.past.timeouts += topo.Timeouts
	for _, ports := range topo.Edges {
		clear(ports)
		d.freeEdges = append(d.freeEdges, ports)
	}
	clear(topo.Edges)
	*topo = DiscoveredTopology{Switches: topo.Switches[:0], CAs: topo.CAs[:0], Edges: topo.Edges}
}

// Stats reports the SMPs issued, retransmitted and terminally timed out
// since construction, over every sweep (DiscoveredTopology's counts are
// those of one).
func (d *Discoverer) Stats() (probes, retries, timeouts int) {
	return d.past.probes + d.topo.Probes, d.past.retries + d.topo.Retries, d.past.timeouts + d.topo.Timeouts
}

// probe is one node probe of a sweep: the directed route to the element,
// d.paths[off:off+n], the switch edge that led there (fromGUID 0 for
// the root) and the sweep's completion.
type probe struct {
	off, n   int
	fromGUID uint64
	fromPort int
	done     func(*DiscoveredTopology)
}

// probeNode probes the element at path d.paths[off:off+n]; fromGUID and
// fromPort identify the switch edge that led here (0 for the root). done
// fires with the topology when no probes remain outstanding.
func (d *Discoverer) probeNode(off, n int, fromGUID uint64, fromPort int, done func(*DiscoveredTopology)) {
	// Re-sweeps give the full retry budget only to edges that were alive
	// at the last healthy view: there a silent probe likely means MAD
	// loss and a retry protects a live subtree from being misdeclared
	// dead. A port with no known neighbour is almost always simply
	// unconnected (mesh boundary), and retrying every one of those each
	// sweep would stretch the sweep past its period — a rare lost probe
	// on a newly cabled port just gets picked up one period later.
	retries := d.MaxRetries
	if d.KnownEdges != nil && fromGUID != 0 {
		if _, known := d.KnownEdges[EdgeHalf{fromGUID, fromPort}]; !known {
			retries = 0
		}
	}
	tag := uint64(len(d.probes))
	d.probes = append(d.probes, probe{off: off, n: n, fromGUID: fromGUID, fromPort: fromPort, done: done})
	d.request(smpMethodGet, smpAttrNodeInfo, d.paths[off:off+n], nil, retries, (*probeDone)(d), tag)
}

// probeDone completes node probes: a named completer type over
// Discoverer (see SMPCompleter) whose tag indexes the probe, so issuing
// a probe allocates nothing but its MAD.
type probeDone Discoverer

func (h *probeDone) SMPDone(tag uint64, status byte, data, retPath []byte) {
	d := (*Discoverer)(h)
	pr := d.probes[tag] // by value: the probes issued below may move the slice
	d.probed(pr, status, data, retPath)
	if d.outstanding == 0 {
		pr.done(d.topo)
	}
}

// probed files one probe's answer — the node, the edge that led to it
// and, for a switch met for the first time, a probe of each of its
// other ports.
func (d *Discoverer) probed(pr probe, status byte, data, retPath []byte) {
	if status != smpStatusOK {
		// Dead port or refused. A terminal timeout across an edge the
		// SM knew to be alive is the detection signal for a failed
		// link or device.
		if status == 0xFF && d.OnLostEdge != nil && pr.fromGUID != 0 {
			if _, known := d.KnownEdges[EdgeHalf{pr.fromGUID, pr.fromPort}]; known {
				d.OnLostEdge(pr.fromGUID, pr.fromPort)
			}
		}
		return
	}
	guid := binary.BigEndian.Uint64(data[2:])
	if pr.fromGUID != 0 {
		d.setEdge(pr.fromGUID, pr.fromPort, guid)
		// Switch targets report their own ingress port, giving the
		// reverse edge without probing it: the graph must contain
		// back-edges toward the SM or route computation from remote
		// switches would see a one-way tree.
		if data[0] == nodeTypeSwitch {
			d.setEdge(guid, int(retPath[pr.n]), pr.fromGUID)
		}
	}
	if _, dup := d.seen[guid]; dup {
		return
	}
	node := d.newNode()
	*node = DiscoveredNode{
		GUID:     guid,
		IsSwitch: data[0] == nodeTypeSwitch,
		NumPorts: int(data[1]),
	}
	if pr.n > 0 {
		node.Path = d.paths[pr.off : pr.off+pr.n : pr.off+pr.n]
	}
	d.seen[guid] = node
	if !node.IsSwitch {
		d.topo.CAs = append(d.topo.CAs, node)
		return
	}
	d.topo.Switches = append(d.topo.Switches, node)
	// The target switch recorded its own ingress port (the port
	// leading back toward the SM) in return-path slot len(path).
	// Skip it on transit switches — probing it would only re-find
	// the previous switch — but NOT on the root switch, where the
	// ingress leads to the SM's own CA, which must be discovered
	// like any other.
	ingress := -1
	if pr.n > 0 {
		ingress = int(retPath[pr.n])
	}
	for p := 0; p < node.NumPorts; p++ {
		if p == ingress {
			continue
		}
		off := len(d.paths)
		d.paths = append(d.paths, d.paths[pr.off:pr.off+pr.n]...)
		d.paths = append(d.paths, byte(p))
		d.probeNode(off, pr.n+1, guid, p, pr.done)
	}
}

// setEdge records the topology edge from → port → to, taking the port
// set from those Reset kept, so the edge set holds exactly the entries
// a freshly made one would.
func (d *Discoverer) setEdge(from uint64, port int, to uint64) {
	ports := d.topo.Edges[from]
	if ports == nil {
		if n := len(d.freeEdges); n > 0 {
			ports, d.freeEdges = d.freeEdges[n-1], d.freeEdges[:n-1]
		} else {
			ports = make(map[int]uint64)
		}
		d.topo.Edges[from] = ports
	}
	ports[port] = to
}

// newNode returns the sweep's next node record, reusing the one an
// earlier sweep held at the same position.
func (d *Discoverer) newNode() *DiscoveredNode {
	n := len(d.nodes)
	if n < cap(d.nodes) {
		d.nodes = d.nodes[:n+1]
	} else {
		d.nodes = append(d.nodes, nil)
	}
	if d.nodes[n] == nil {
		d.nodes[n] = new(DiscoveredNode)
	}
	return d.nodes[n]
}

// configure assigns LIDs and programs routes, then reports.
func (d *Discoverer) configure(done func(*DiscoveredTopology)) {
	topo := d.topo
	// Deterministic ordering: pinned CAs keep their LIDs; the rest get
	// the lowest free LIDs in discovery order. With no pins this is the
	// classic sequential assignment 1, 2, ...
	used := make(map[packet.LID]bool, len(d.Pins))
	for _, lid := range d.Pins {
		used[lid] = true
	}
	free := packet.LID(1)
	for _, ca := range topo.CAs {
		if lid, ok := d.Pins[ca.GUID]; ok {
			ca.LID = lid
			continue
		}
		for used[free] {
			free++
		}
		ca.LID = free
		used[free] = true
	}
	// Locate each CA's attachment: the switch+port whose edge points at
	// the CA's GUID.
	attach := make(map[uint64]struct {
		sw   uint64
		port int
	})
	for swGUID, edges := range topo.Edges {
		for port, nbr := range edges {
			if n := d.seen[nbr]; n != nil && !n.IsSwitch {
				attach[nbr] = struct {
					sw   uint64
					port int
				}{swGUID, port}
			}
		}
	}
	// Shortest paths between switches over the discovered graph.
	nextHop := d.computeNextHops()

	remaining := 0
	finish := func() {
		remaining--
		if remaining == 0 {
			done(topo)
		}
	}

	// Assign LIDs in-band.
	for _, ca := range topo.CAs {
		if len(ca.Path) == 0 {
			// The SM's own CA: assign locally (it cannot SMP itself).
			d.hca.SetLID(ca.LID)
			continue
		}
		remaining++
		var lidData [2]byte
		binary.BigEndian.PutUint16(lidData[:], uint16(ca.LID))
		d.send(smpMethodSet, smpAttrSetLID, ca.Path, lidData[:], func(status byte, _ []byte) {
			if status != smpStatusOK {
				topo.Timeouts++ // counted as a failure
			}
			finish()
		})
	}
	// Hold the completion until all sets below are also issued.
	remaining++

	// Program every switch's route for every CA LID.
	for _, sw := range topo.Switches {
		for _, ca := range topo.CAs {
			at := attach[ca.GUID]
			var port int
			if at.sw == sw.GUID {
				port = at.port
			} else {
				p, ok := nextHop[sw.GUID][at.sw]
				if !ok {
					continue // disconnected (should not happen)
				}
				port = p
			}
			remaining++
			var data [3]byte
			binary.BigEndian.PutUint16(data[:2], uint16(ca.LID))
			data[2] = byte(port)
			d.send(smpMethodSet, smpAttrSetRoute, sw.Path, data[:], func(status byte, _ []byte) {
				if status != smpStatusOK {
					topo.Timeouts++
				}
				finish()
			})
		}
	}
	finish() // release the hold
}

// computeNextHops runs BFS over the discovered switch graph:
// nextHop[src][dst] is the egress port at src on a shortest path to dst.
// The BFS itself is the shared deterministic implementation in
// internal/topology, which breaks equal-length ties by lowest port —
// matching the sweep's ascending-port probe order.
func (d *Discoverer) computeNextHops() map[uint64]map[uint64]int {
	g := make(topology.SwitchGraph, len(d.topo.Switches))
	for _, sw := range d.topo.Switches {
		edges := make(map[int]uint64)
		for port, nbr := range d.topo.Edges[sw.GUID] {
			if n := d.seen[nbr]; n != nil && n.IsSwitch {
				edges[port] = nbr
			}
		}
		g[sw.GUID] = edges
	}
	return topology.NextHops(g)
}
