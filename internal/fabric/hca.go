package fabric

import (
	"fmt"

	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// HCA is a Host Channel Adapter: one port into the fabric, per-VL send
// queues (whose occupancy defines the paper's queuing-time metric), a
// mandatory partition table (IBA requires HCAs to enforce partitioning;
// section 3 of the paper), and an upcall to the transport layer for
// received packets.
type HCA struct {
	name   string
	lid    packet.LID
	node   int32 // index among the fabric's HCAs (NewHCAs' i); int32 to sit in lid's padding
	sim    *sim.Simulator
	params *Params
	port   Port

	// PKeyTable is the HCA's partition table; every arriving data
	// packet is checked against it.
	PKeyTable *keys.PartitionTable

	// OnDeliver receives packets that passed the P_Key check and that
	// the management agent, if any, did not take.
	OnDeliver func(d *Delivery)
	// OnPKeyViolation fires for packets failing the P_Key check, after
	// the violation counter increments, with the HCA's node index; the
	// subnet-management layer hooks traps here (section 3.3), one
	// handler for every HCA.
	OnPKeyViolation func(node int, d *Delivery)

	// ExtraSendDelay is charged once per injected packet before
	// serialization, modelling per-message work such as MAC generation
	// (one clock cycle in the paper's section 6 analysis). The work is
	// performed by a single serial engine: when messages arrive faster
	// than the engine drains, they queue — which is how a MAC slower
	// than the link becomes the bottleneck (paper section 7).
	ExtraSendDelay sim.Time

	Counters metrics.Set[HCACounter]
	ctr      [numHCACounters]uint64 // Counters' cells

	smi            SMI
	pkeyViolations uint64
	engineBusyTil  sim.Time
	guid           uint64

	// Congestion Control Annex state. cc holds the parameters the SM's
	// congestion manager programmed (zero until programmed = CC off);
	// ccFlows is the congestion control table, keyed by destination LID:
	// each BECN arrival bumps the flow's index, each index level adds
	// CCTStep of inter-packet injection delay, and a per-flow timer
	// decays the index back every CCTDecay. The table is made by the
	// first BECN.
	cc      CCParams
	ccFlows map[packet.LID]*ccFlow

	// health holds the CA port's IBA PortCounters (one port per HCA),
	// swept by the Performance Management plane over PMA MADs.
	health PortCounters
}

// SMI is an HCA's management receive path, the HCA-side counterpart of a
// switch's MADHandler: the layer that owns QP0 and hands each arriving
// management datagram to the agent registered for it. Returning true
// consumes the delivery; the HCA recycles the message once ReceiveMAD
// returns, so the agent copies what it keeps.
type SMI interface {
	ReceiveMAD(d *Delivery) bool
}

// NewHCA creates an HCA with the given LID.
func NewHCA(s *sim.Simulator, params *Params, name string, lid packet.LID) *HCA {
	h := NewHCAs(s, params, 1, func(int) string { return name })[0]
	h.lid = lid
	return h
}

// NewHCAs creates a fabric's n HCAs, named by name(i), with no LID yet.
// The HCAs and their partition tables are one allocation per kind, not
// one per object; each table holds its first entry in a shared slab.
func NewHCAs(s *sim.Simulator, params *Params, n int, name func(i int) string) []*HCA {
	hcas := make([]HCA, n)
	tables := keys.NewPartitionTables(n, 1)
	out := make([]*HCA, n)
	params.slabs().ends += n
	for i := range hcas {
		h := &hcas[i]
		*h = HCA{
			name:      name(i),
			node:      int32(i),
			sim:       s,
			params:    params,
			PKeyTable: &tables[i],
		}
		h.Counters.Bind(&hcaCounters, h.ctr[:])
		out[i] = h
	}
	return out
}

// Name returns the HCA's name.
func (h *HCA) Name() string { return h.name }

// Node returns the HCA's index among its fabric's HCAs.
func (h *HCA) Node() int { return int(h.node) }

// LID returns the HCA's local identifier (0 until assigned).
func (h *HCA) LID() packet.LID { return h.lid }

// SetLID assigns the HCA's local identifier — in a real subnet this is
// the Subnet Manager's job, done in-band during discovery.
func (h *HCA) SetLID(lid packet.LID) { h.lid = lid }

// SetSMI installs the management receive path (nil disables).
func (h *HCA) SetSMI(s SMI) { h.smi = s }

// SMI returns the installed management receive path, or nil.
func (h *HCA) SMI() SMI { return h.smi }

// SetGUID assigns the node GUID reported in NodeInfo.
func (h *HCA) SetGUID(g uint64) { h.guid = g }

// GUID returns the node GUID.
func (h *HCA) GUID() uint64 { return h.guid }

// Sim returns the simulator driving this HCA.
func (h *HCA) Sim() *sim.Simulator { return h.sim }

// Params returns the fabric parameters.
func (h *HCA) Params() *Params { return h.params }

func (h *HCA) bind(port int, ch *outChannel) {
	if port != 0 {
		panic(fmt.Sprintf("fabric: HCA %s has a single port", h.name))
	}
	if h.port.out != nil {
		panic(fmt.Sprintf("fabric: HCA %s already connected", h.name))
	}
	ch.health = &h.health
	h.port.out = ch
}

// PortHealth returns a copy of the HCA port's IBA PortCounters.
func (h *HCA) PortHealth() PortCounters { return h.health }

// Send queues a packet for injection. The delivery is stamped with the
// enqueue time; its queuing time ends when serialization starts. The
// source LID is filled in when unset but an explicit SLID is preserved:
// a compromised node controls its own LRH, and source spoofing is part
// of the paper's threat model (section 2.1).
func (h *HCA) Send(d *Delivery) {
	if h.port.out == nil {
		panic(fmt.Sprintf("fabric: HCA %s not connected", h.name))
	}
	// The LRH stamp edits a sealed image in place and owes the CRCs over
	// it again, so the trailer on the wire is the one a seal of the
	// stamped packet writes.
	slid := d.Pkt.LRH.SLID
	if slid == 0 {
		slid = h.lid
	}
	d.Pkt.Restamp(d.VL, slid)
	d.EnqueuedAt = h.sim.Now()
	h.Counters.Add(HCASent, 1)
	h.params.observe(h.sim.Now(), ObsEnqueue, h.name, d)
	extra := h.ExtraSendDelay
	if len(h.ccFlows) > 0 && d.Class != ClassManagement && d.Pkt.BTH.OpCode != packet.CNPNotify {
		// Congestion control: a flow with a non-zero CCT index waits
		// index*CCTStep extra before each injection. The delay rides the
		// same serial send engine as MAC generation, so a throttled
		// flood backs up in the source's own engine instead of the
		// fabric — which is the entire point of the annex.
		if f := h.ccFlows[d.Pkt.LRH.DLID]; f != nil && f.index > 0 {
			extra += sim.Time(f.index) * h.cc.CCTStep
			h.Counters.Add(HCACCTThrottled, 1)
		}
	}
	if extra > 0 {
		start := h.sim.Now()
		if h.engineBusyTil > start {
			start = h.engineBusyTil
		}
		h.engineBusyTil = start + extra
		h.sim.ScheduleCall(h.engineBusyTil-h.sim.Now(), (*hcaInject)(h), d, 0)
		return
	}
	h.port.out.enqueue(d)
}

// hcaInject fires when the send engine has finished a packet's
// per-message work and hands it to the port: a named handler type over
// HCA, so the delayed path allocates no more than the direct one.
type hcaInject HCA

func (h *hcaInject) Fire(arg any, _ uint64) { h.port.out.enqueue(arg.(*Delivery)) }

// SendQueueLen returns the number of packets waiting on a VL, the signal
// realtime sources use to withhold traffic when the network cannot
// sustain their rate (section 3.1).
func (h *HCA) SendQueueLen(vl uint8) int {
	if h.port.out == nil {
		return 0
	}
	return h.port.out.qlen(vl)
}

// PKeyViolations returns the HCA's P_Key violation counter (the IBA
// counter the paper's trap mechanism is built on).
func (h *HCA) PKeyViolations() uint64 { return h.pkeyViolations }

// PortStats returns the bytes transmitted and cumulative serialization
// time on the HCA's outbound link.
func (h *HCA) PortStats() (bytes uint64, busy sim.Time) {
	if h.port.out == nil {
		return 0, 0
	}
	return h.port.out.bytesSent, h.port.out.busyTime
}

// SetLinkState raises or lowers the outbound half of the HCA's link; the
// switch side owns the other direction.
func (h *HCA) SetLinkState(up bool) {
	if h.port.out != nil {
		h.port.out.setDown(!up)
	}
}

// Blackholed returns the packets destroyed on the HCA's outbound channel
// while its link was down.
func (h *HCA) Blackholed() uint64 {
	if h.port.out == nil {
		return 0
	}
	return h.port.out.blackholed
}

// HOQDropped returns the packets aged out of the HCA's send queues by
// the Head-of-Queue lifetime limit.
func (h *HCA) HOQDropped() uint64 {
	if h.port.out == nil {
		return 0
	}
	return h.port.out.hoqDropped
}

// CreditStallTime returns the cumulative time the HCA's outbound port
// spent with backlog but no transmittable VL.
func (h *HCA) CreditStallTime() sim.Time {
	if h.port.out == nil {
		return 0
	}
	return h.port.out.stallTime(h.sim.Now())
}

// ccFlow is one congestion control table entry: the current index and
// whether its decay timer is armed.
type ccFlow struct {
	index int
	armed bool
}

// SetCongestionControl programs the HCA's congestion-control-table
// parameters (CC annex CCT write, performed by the SM's congestion
// manager at bring-up). The zero value disables throttling and BECN
// processing.
func (h *HCA) SetCongestionControl(cc CCParams) {
	h.cc = cc
}

// NotifyBECN records a backward congestion notification for the flow
// toward dst: the CCT index rises one level (saturating at CCTSize),
// and the decay timer is armed so throttling relaxes once notifications
// stop. Called on CNP arrival (UD flows) and by the transport layer on
// BECN-bearing ACKs (RC flows). No-op while congestion control is off.
func (h *HCA) NotifyBECN(dst packet.LID) {
	if !h.cc.Enabled() {
		return
	}
	f := h.ccFlows[dst]
	if f == nil {
		if h.ccFlows == nil {
			h.ccFlows = make(map[packet.LID]*ccFlow)
		}
		f = &ccFlow{}
		h.ccFlows[dst] = f
	}
	if f.index < h.cc.CCTSize {
		f.index++
	}
	h.Counters.Add(HCABECNNotified, 1)
	if !f.armed {
		f.armed = true
		h.armCCTDecay(f)
	}
}

// armCCTDecay schedules the flow's next index decrement; the timer
// re-arms while the index stays positive.
func (h *HCA) armCCTDecay(f *ccFlow) {
	h.sim.ScheduleCall(h.cc.CCTDecay, (*cctDecay)(h), f, 0)
}

// cctDecay fires one tick of a flow's recovery timer: a named handler
// over HCA whose operand is the flow (see hcaInject).
type cctDecay HCA

func (h *cctDecay) Fire(arg any, _ uint64) {
	f := arg.(*ccFlow)
	if f.index > 0 {
		f.index--
	}
	if f.index > 0 {
		(*HCA)(h).armCCTDecay(f)
		return
	}
	f.armed = false
}

// CCTIndex returns the largest current congestion-control-table index
// across the HCA's flows — non-zero means at least one flow is being
// throttled at the source.
func (h *HCA) CCTIndex() int {
	idx := 0
	for _, f := range h.ccFlows {
		if f.index > idx {
			idx = f.index
		}
	}
	return idx
}

// sendCNP returns a congestion notification packet to the source of a
// FECN-marked datagram (CC annex: UD has no ACK stream to piggyback
// BECN on). The CNP carries the offending flow's P_Key and is
// intercepted by the source HCA before its partition check — congestion
// is a link-level phenomenon, and throttling an unauthorized flood is
// exactly the annex's job.
func (h *HCA) sendCNP(orig *Delivery) {
	d := h.params.NewMessage(ClassBestEffort,
		packet.LRH{LNH: packet.LNHIBALocal, DLID: orig.Pkt.LRH.SLID, SLID: h.lid},
		packet.BTH{OpCode: packet.CNPNotify, PKey: orig.Pkt.BTH.PKey, BECN: true}, 0)
	if err := icrc.Seal(d.Pkt); err != nil {
		panic(fmt.Sprintf("fabric: sealing CNP: %v", err))
	}
	h.Counters.Add(HCACNPSent, 1)
	h.params.observe(h.sim.Now(), ObsCNP, h.name, d)
	h.Send(d)
}

// arrive implements Device. The HCA is where a message's journey ends:
// whatever receive decides, the block goes back to the free list once the
// terminal has been observed and its upcall has returned.
func (h *HCA) arrive(_ int, d *Delivery) {
	h.params.release(d, h.receive(d))
}

// receive verifies CRCs, checks the partition table, then delivers, and
// returns the terminal it observed. The VCRC guards the last link; the
// ICRC (when the packet is not carrying an authentication tag) guards end
// to end.
func (h *HCA) receive(d *Delivery) ObsKind {
	d.DeliveredAt, d.DeliveredTo = h.sim.Now(), h.node
	d.ReturnCredit()
	if !vcrcOK(d) {
		h.Counters.Add(HCAVCRCDrops, 1)
		h.health.AddRcvErrors(1)
		h.params.observe(h.sim.Now(), ObsCRCDrop, h.name, d)
		return ObsCRCDrop
	}
	if d.Tainted && d.Pkt.BTH.AuthID == 0 {
		if ok, err := icrc.VerifyICRC(d.Pkt.Wire()); err != nil || !ok {
			h.Counters.Add(HCAICRCDrops, 1)
			h.health.AddRcvErrors(1)
			h.params.observe(h.sim.Now(), ObsCRCDrop, h.name, d)
			return ObsCRCDrop
		}
	}
	if h.cc.Enabled() && d.Class != ClassManagement {
		// Congestion control runs below partition enforcement: a CNP for
		// one of this HCA's flows is consumed here (before the P_Key
		// check — the notification may quote an invalid key the flood
		// carried), and a FECN-marked arrival is reflected back to its
		// source so the congestion tree is starved where it is fed.
		if d.Pkt.BTH.OpCode == packet.CNPNotify {
			h.Counters.Add(HCACNPReceived, 1)
			h.params.observe(h.sim.Now(), ObsBECN, h.name, d)
			h.NotifyBECN(d.Pkt.LRH.SLID)
			return ObsBECN
		}
		if d.Pkt.BTH.FECN {
			h.Counters.Add(HCAFECNReceived, 1)
			if svc := d.Pkt.BTH.OpCode.Service(); svc == packet.ServiceUD || svc == packet.ServiceUC {
				// No ACK stream to piggyback BECN on: answer with a
				// standalone CNP. RC flows are handled by the transport
				// layer, which sets BECN on the ACK instead.
				h.sendCNP(d)
			}
		}
	}
	if d.Class != ClassManagement && !h.PKeyTable.Check(d.Pkt.BTH.PKey) {
		h.pkeyViolations++
		h.params.observe(h.sim.Now(), ObsPKeyReject, h.name, d)
		if h.OnPKeyViolation != nil {
			h.OnPKeyViolation(int(h.node), d)
		}
		return ObsPKeyReject
	}
	if lid, dlid := h.LID(), d.Pkt.LRH.DLID; lid != 0 && dlid != lid && dlid != packet.LIDPermissive {
		// Addressed to one of this HCA's alternate (APM) LIDs — the
		// fabric routes alternate addresses to the same port, and the
		// transport layer uses the mismatch to mirror acknowledgements
		// onto the alternate path. A directed-route SMP is addressed to
		// the permissive LID, not to an alternate one.
		h.Counters.Add(HCAAltLIDArrivals, 1)
	}
	h.Counters.Add(HCADelivered, 1)
	h.params.observe(h.sim.Now(), ObsDeliver, h.name, d)
	if d.Class == ClassManagement && h.smi != nil && h.smi.ReceiveMAD(d) {
		return ObsDeliver
	}
	if h.OnDeliver != nil {
		h.OnDeliver(d)
	}
	return ObsDeliver
}
