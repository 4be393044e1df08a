package fabric

import (
	"fmt"

	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Filter is the partition-enforcement hook a switch consults for every
// data packet (package enforce provides DPT/IF/SIF implementations;
// section 3.3 of the paper). ingress is true when the packet entered on a
// port directly connected to an end node. The filter returns whether to
// drop the packet and how much lookup latency to charge.
type Filter interface {
	Inspect(sw *Switch, inPort int, ingress bool, d *Delivery) (drop bool, delay sim.Time)
}

// MADHandler processes management datagrams addressed to the switch
// itself — most importantly directed-route SMPs, which are forwarded by
// an explicit port path instead of the (possibly not yet programmed) LID
// table. Returning true consumes the delivery: the handler has either
// absorbed it — it released the input-buffer credit, and the switch
// recycles the message once HandleMAD returns, so the handler copies what
// it keeps — or re-emitted it via SendRaw.
type MADHandler interface {
	HandleMAD(sw *Switch, inPort int, d *Delivery) bool
}

// MADTap intercepts management datagrams arriving at a switch before the
// MAD handler or LID forwarding sees them — the fault layer's drop/delay
// hook. Return drop to destroy the MAD, or a positive delay to add to its
// processing latency. A nil tap changes nothing.
type MADTap func(sw *Switch, d *Delivery) (drop bool, delay sim.Time)

// Switch is a store-and-forward IBA switch with a LID-indexed linear
// forwarding table. The testbed uses 5-port switches: port 0 to the local
// HCA, ports 1-4 to neighbours (Table 1).
type Switch struct {
	name    string
	sim     *sim.Simulator
	params  *Params
	ports   []Port
	ingress []bool // per port: directly connected to an end node
	// fwd is the linear forwarding table: out-port + 1 indexed by LID,
	// zero meaning no route. NewSwitches sizes it once to the fabric's
	// LIDs; it grows on demand past them, so a mesh using APM alternate
	// LIDs (0x1000 up) reaches 8 KiB, and the bound is 128 KiB at LID
	// 0xFFFF.
	fwd    []uint16
	filter Filter
	madh   MADHandler
	madTap MADTap
	// madHeld is the datagram the MAD handler is looking at until SendRaw
	// takes it back: one still held when HandleMAD returns true was consumed.
	madHeld *Delivery
	guid    uint64
	down    bool
	// filterSlot is the index its partition filter assigned (FilterSlot).
	filterSlot int32
	// index is the switch's index among its fabric's (NewSwitches' i).
	index int32
	// ccThreshold is the programmed FECN marking threshold (zero until
	// the SM's congestion manager programs the switch).
	ccThreshold int

	// trapThreshold and onHealthTrap are the PerfMgr's programmed
	// threshold trap: when a port's error sum (symbol + receive errors)
	// reaches the threshold while the port's arm bit is set, the trap
	// fires once and disarms until re-armed. The per-port counters and
	// arm bits live on the Port itself.
	trapThreshold uint64
	onHealthTrap  func(sw, port int)

	Counters metrics.Set[SwitchCounter]
	ctr      [numSwitchCounters]uint64 // Counters' cells
}

// NewSwitch creates a switch with nports ports.
func NewSwitch(s *sim.Simulator, params *Params, name string, nports int) *Switch {
	return NewSwitches(s, params, 1, nports, 0, func(int) string { return name })[0]
}

// NewSwitches creates a fabric's n switches of nports ports each, named
// by name(i), with each linear forwarding table sized for the LIDs below
// lids. The switches, their ports, ingress marks and forwarding tables
// are one allocation per kind, not one per object, so a fabric's set-up
// cost grows with its size, not its object count.
func NewSwitches(s *sim.Simulator, params *Params, n, nports, lids int, name func(i int) string) []*Switch {
	sws := make([]Switch, n)
	out := make([]*Switch, n)
	ports := make([]Port, n*nports)
	ingress := make([]bool, n*nports)
	fwd := make([]uint16, n*lids)
	for i := range sws {
		sw := &sws[i]
		*sw = Switch{
			name:    name(i),
			index:   int32(i),
			sim:     s,
			params:  params,
			ports:   ports[i*nports : (i+1)*nports : (i+1)*nports],
			ingress: ingress[i*nports : (i+1)*nports : (i+1)*nports],
			fwd:     fwd[i*lids : (i+1)*lids : (i+1)*lids],
		}
		sw.Counters.Bind(&switchCounters, sw.ctr[:])
		for j := range sw.ports {
			sw.ports[j] = Port{owner: sw, id: j}
		}
		out[i] = sw
	}
	return out
}

// Name returns the switch's name.
func (sw *Switch) Name() string { return sw.name }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// SetRoute installs "deliver packets for lid via port".
func (sw *Switch) SetRoute(lid packet.LID, port int) {
	sw.checkPort("route to", port)
	if int(lid) >= len(sw.fwd) {
		sw.fwd = append(sw.fwd, make([]uint16, int(lid)+1-len(sw.fwd))...)
	}
	sw.fwd[lid] = uint16(port + 1)
}

// Route returns the output port for lid.
func (sw *Switch) Route(lid packet.LID) (int, bool) {
	if int(lid) >= len(sw.fwd) || sw.fwd[lid] == 0 {
		return 0, false
	}
	return int(sw.fwd[lid]) - 1, true
}

// ClearRoute removes the forwarding entry for lid; packets to it become
// unroutable here instead of riding a stale route into a black hole.
func (sw *Switch) ClearRoute(lid packet.LID) {
	if int(lid) < len(sw.fwd) {
		sw.fwd[lid] = 0
	}
}

// MarkIngress declares that a port connects directly to an end node, so
// ingress filtering applies there.
func (sw *Switch) MarkIngress(port int) {
	sw.checkPort("ingress mark on", port)
	sw.ingress[port] = true
}

// IsIngress reports whether the port is an ingress (end-node-facing)
// port; false for a port the switch does not have.
func (sw *Switch) IsIngress(port int) bool {
	return port >= 0 && port < len(sw.ingress) && sw.ingress[port]
}

// checkPort panics, naming the switch, when a table write names a port
// the switch does not have — only a wiring bug can produce one.
func (sw *Switch) checkPort(what string, port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("fabric: %s: %s invalid port %d", sw.name, what, port))
	}
}

// SetFilter installs the partition-enforcement filter (nil disables).
func (sw *Switch) SetFilter(f Filter) { sw.filter = f }

// SetMADHandler installs the management-datagram agent (nil disables).
func (sw *Switch) SetMADHandler(h MADHandler) { sw.madh = h }

// SetMADTap installs the fault layer's MAD drop/delay hook (nil disables).
func (sw *Switch) SetMADTap(t MADTap) { sw.madTap = t }

// SetLinkState raises or lowers the outbound half of the link on the
// given port. Lowering destroys everything queued on the port; raising
// resets its credits to a full complement. The peer device owns the
// other direction — a full link failure lowers both halves.
func (sw *Switch) SetLinkState(port int, up bool) {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return
	}
	sw.ports[port].out.setDown(!up)
}

// SetDown kills or revives the whole switch. A dead switch destroys
// every arriving packet (neighbours see probes into it time out), stops
// transmitting on all ports, and loses its forwarding table — a revived
// switch is blank until the Subnet Manager reprograms it. Reviving also
// raises all the switch's outbound links.
func (sw *Switch) SetDown(down bool) {
	if sw.down == down {
		return
	}
	sw.down = down
	if down {
		clear(sw.fwd)
	}
	for i := range sw.ports {
		if ch := sw.ports[i].out; ch != nil {
			ch.setDown(down)
		}
	}
}

// PortBlackholed returns the number of packets destroyed on the port's
// outbound channel while its link was down.
func (sw *Switch) PortBlackholed(port int) uint64 {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return 0
	}
	return sw.ports[port].out.blackholed
}

// Blackholed returns the packets destroyed by faults at this switch: the
// sum over ports of outbound link losses plus packets that arrived while
// the switch itself was dead or whose MAD was dropped by the tap.
func (sw *Switch) Blackholed() uint64 {
	n := sw.Counters.Value(SwBlackholed) + sw.Counters.Value(SwMADDropped)
	for i := range sw.ports {
		n += sw.PortBlackholed(i)
	}
	return n
}

// HOQDropped returns the packets aged out by the Head-of-Queue lifetime
// limit across all the switch's output ports.
func (sw *Switch) HOQDropped() uint64 {
	var n uint64
	for i := range sw.ports {
		if ch := sw.ports[i].out; ch != nil {
			n += ch.hoqTotal()
		}
	}
	return n
}

// SetCongestionControl programs the switch's FECN marking threshold
// (CC annex CongestionControlTable write): every output port marks
// forwarded packets whose VL queue is at or past the threshold. Zero
// turns marking off. Applies to ports connected later too.
func (sw *Switch) SetCongestionControl(markingThreshold int) {
	sw.ccThreshold = markingThreshold
	for i := range sw.ports {
		if ch := sw.ports[i].out; ch != nil {
			ch.ccThreshold = markingThreshold
		}
	}
}

// FECNMarked returns the packets FECN-marked on one output port (zero
// for unconnected ports).
func (sw *Switch) FECNMarked(port int) uint64 {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return 0
	}
	return sw.ports[port].out.fecnMarked
}

// FECNMarkedTotal sums FECN markings over all output ports — non-zero
// means this switch is part of an active congestion tree.
func (sw *Switch) FECNMarkedTotal() uint64 {
	var n uint64
	for i := range sw.ports {
		if ch := sw.ports[i].out; ch != nil {
			n += ch.fecnMarked
		}
	}
	return n
}

// CreditStallTime returns the cumulative time the switch's output ports
// spent with backlog but no transmittable VL — the upstream HOL-blocking
// pressure a congestion tree exerts.
func (sw *Switch) CreditStallTime() sim.Time {
	var t sim.Time
	now := sw.sim.Now()
	for i := range sw.ports {
		if ch := sw.ports[i].out; ch != nil {
			t += ch.stallTime(now)
		}
	}
	return t
}

// PortHealth returns a copy of the port's IBA PortCounters (the zero
// value for out-of-range ports).
func (sw *Switch) PortHealth(port int) PortCounters {
	if port < 0 || port >= len(sw.ports) {
		return PortCounters{}
	}
	return sw.ports[port].health
}

// SetPortBER overrides the bit-error rate of the port's outbound link
// direction — the per-link gray-failure injection knob. The rate rides
// the fabric Params' RNG, so callers must ensure one is installed.
// No-op on unconnected ports.
func (sw *Switch) SetPortBER(port int, rate float64) {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return
	}
	sw.ports[port].out.berOverride = rate
	sw.ports[port].out.berSet = true
}

// ClearPortBER removes the port's bit-error override; the fabric-wide
// rate (usually zero) applies again.
func (sw *Switch) ClearPortBER(port int) {
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		return
	}
	sw.ports[port].out.berSet = false
	sw.ports[port].out.berOverride = 0
}

// SetHealthTrap programs the switch's error-threshold trap (the
// PerfMgr's fast path): every port arms, and the first port whose
// error sum reaches the threshold fires fn once, with the switch's index
// among its fabric's, and disarms. Zero threshold (or nil fn) turns traps
// off. One fn serves every switch of a fabric.
func (sw *Switch) SetHealthTrap(threshold uint64, fn func(sw, port int)) {
	sw.trapThreshold = threshold
	sw.onHealthTrap = fn
	for i := range sw.ports {
		sw.ports[i].trapArmed = threshold > 0 && fn != nil
	}
}

// RearmHealthTrap re-arms one port's threshold trap after the PerfMgr
// has handled (and typically reset its baseline for) the previous fire.
func (sw *Switch) RearmHealthTrap(port int) {
	if port >= 0 && port < len(sw.ports) && sw.trapThreshold > 0 && sw.onHealthTrap != nil {
		sw.ports[port].trapArmed = true
	}
}

// checkHealthTrap fires the programmed trap when an armed port's error
// sum reaches the threshold. Called from the port's error-counter
// increment sites only, so clean traffic never reaches it.
func (sw *Switch) checkHealthTrap(port int) {
	if sw.trapThreshold == 0 || sw.onHealthTrap == nil || !sw.ports[port].trapArmed {
		return
	}
	if sw.ports[port].health.ErrorSum() >= sw.trapThreshold {
		sw.ports[port].trapArmed = false
		sw.Counters.Add(SwHealthTraps, 1)
		sw.onHealthTrap(int(sw.index), port)
	}
}

// FilterSlot and SetFilterSlot hold an index a partition filter assigns
// the switch, so the filter finds its per-switch state without a map
// lookup; the fabric itself never reads it.
func (sw *Switch) FilterSlot() int     { return int(sw.filterSlot) }
func (sw *Switch) SetFilterSlot(i int) { sw.filterSlot = int32(i) }

// SetGUID assigns the switch's node GUID (reported in NodeInfo).
func (sw *Switch) SetGUID(g uint64) { sw.guid = g }

// GUID returns the switch's node GUID.
func (sw *Switch) GUID() uint64 { return sw.guid }

// SendRaw enqueues a delivery directly on an output port, bypassing the
// forwarding table — the primitive directed-route forwarding is built on.
// The caller must hold the delivery (e.g. from a MADHandler); its input
// buffer credit is released when transmission starts, as usual.
func (sw *Switch) SendRaw(port int, d *Delivery) {
	if sw.madHeld == d {
		sw.madHeld = nil
	}
	if port < 0 || port >= len(sw.ports) || sw.ports[port].out == nil {
		sw.Counters.Add(SwDeadPort, 1)
		d.ReturnCredit()
		sw.params.release(d, ObsUnroutable)
		return
	}
	sw.Counters.Add(SwDRForwarded, 1)
	d.Hops++
	sw.ports[port].out.enqueue(d)
}

// Sim returns the simulator driving this switch.
func (sw *Switch) Sim() *sim.Simulator { return sw.sim }

// PortConnected reports whether the port has been wired to a link.
func (sw *Switch) PortConnected(port int) bool { return sw.ports[port].Connected() }

// QueueDepth returns the packets waiting in the port's output queues
// summed over all VLs, plus one if the serializer is mid-transmission —
// the port's total unsent backlog.
func (sw *Switch) QueueDepth(port int) int {
	ch := sw.ports[port].out
	if ch == nil {
		return 0
	}
	n := 0
	for vl := 0; vl < NumVLs; vl++ {
		n += ch.queues[vl].len()
	}
	ch.settle()
	if ch.busy {
		n++
	}
	return n
}

// PortStats returns the bytes transmitted and cumulative serialization
// time of the port's outbound channel (zero values when unconnected).
func (sw *Switch) PortStats(port int) (bytes uint64, busy sim.Time) {
	ch := sw.ports[port].out
	if ch == nil {
		return 0, 0
	}
	return ch.bytesSent, ch.busyTime
}

// Params returns the fabric parameters.
func (sw *Switch) Params() *Params { return sw.params }

func (sw *Switch) bind(port int, ch *outChannel) {
	if sw.ports[port].out != nil {
		panic(fmt.Sprintf("fabric: %s port %d already connected", sw.name, port))
	}
	ch.ccThreshold = sw.ccThreshold
	ch.health = &sw.ports[port].health
	ch.healthSw, ch.healthPort = sw, port
	sw.ports[port].out = ch
}

// arrive implements Device: route (and filter) after the lookup latency.
// Corrupted packets are discarded by the per-link VCRC check first
// (IBA 7.8: the variant CRC is validated at every link).
func (sw *Switch) arrive(port int, d *Delivery) {
	if sw.down {
		// A dead switch destroys everything that lands on it; the
		// sender's buffer credit is still released (the packet left the
		// wire), so flow control stays conserved.
		sw.Counters.Add(SwBlackholed, 1)
		sw.params.observe(sw.sim.Now(), ObsBlackhole, sw.name, d)
		d.ReturnCredit()
		sw.params.release(d, ObsBlackhole)
		return
	}
	if !vcrcOK(d) {
		sw.Counters.Add(SwVCRCDrops, 1)
		sw.ports[port].health.AddRcvErrors(1)
		sw.checkHealthTrap(port)
		sw.params.observe(sw.sim.Now(), ObsCRCDrop, sw.name, d)
		d.ReturnCredit()
		sw.params.release(d, ObsCRCDrop)
		return
	}
	// Management agent first: directed-route SMPs are forwarded by an
	// explicit path, not by the LID table (which may not be programmed
	// yet during subnet discovery).
	if d.Class == ClassManagement && (sw.madh != nil || sw.madTap != nil) {
		var extra sim.Time
		if sw.madTap != nil {
			drop, delay := sw.madTap(sw, d)
			if drop {
				sw.Counters.Add(SwMADDropped, 1)
				sw.ports[port].health.AddVL15Dropped(1)
				sw.params.observe(sw.sim.Now(), ObsBlackhole, sw.name, d)
				d.ReturnCredit()
				sw.params.release(d, ObsBlackhole)
				return
			}
			extra = delay
		}
		sw.sim.ScheduleCall(sw.params.SwitchLookup+extra, (*swMAD)(sw), d, uint64(port))
		return
	}
	delay := sw.params.SwitchLookup
	var drop uint64
	if sw.filter != nil {
		fdrop, fdelay := sw.filter.Inspect(sw, port, sw.IsIngress(port), d)
		if fdrop {
			drop = 1
		}
		delay += fdelay
	}
	sw.sim.ScheduleCall(delay, (*swForward)(sw), d, drop)
}

// swMAD and swForward are the switch's two per-packet events, fired when
// the lookup latency has elapsed: named handler types over Switch for
// the same reason as the channel's (see hoqExpire). n carries what a
// closure would have captured — the in-port for a MAD, the filter's
// verdict (non-zero = drop) for a data packet.

// swMAD offers a management datagram to the MAD handler, falling back to
// LID forwarding.
type swMAD Switch

func (h *swMAD) Fire(arg any, inPort uint64) {
	sw, d := (*Switch)(h), arg.(*Delivery)
	if sw.madh != nil {
		sw.madHeld = d
		taken := sw.madh.HandleMAD(sw, int(inPort), d)
		consumed := sw.madHeld == d
		sw.madHeld = nil
		if taken {
			if consumed {
				sw.params.release(d, ObsDeliver)
			}
			return
		}
	}
	sw.routeByLID(d)
}

// swForward forwards a data packet, or discards it if the filter said so.
type swForward Switch

func (h *swForward) Fire(arg any, drop uint64) {
	sw, d := (*Switch)(h), arg.(*Delivery)
	if drop != 0 {
		sw.Counters.Add(SwFiltered, 1)
		sw.params.observe(sw.sim.Now(), ObsFiltered, sw.name, d)
		d.ReturnCredit()
		sw.params.release(d, ObsFiltered)
		return
	}
	sw.routeByLID(d)
}

// routeByLID performs the normal forwarding-table lookup and enqueue.
func (sw *Switch) routeByLID(d *Delivery) {
	out, ok := sw.Route(d.Pkt.LRH.DLID)
	if !ok {
		sw.Counters.Add(SwUnroutable, 1)
		sw.params.observe(sw.sim.Now(), ObsUnroutable, sw.name, d)
		d.ReturnCredit()
		sw.params.release(d, ObsUnroutable)
		return
	}
	ch := sw.ports[out].out
	if ch == nil {
		sw.Counters.Add(SwDeadPort, 1)
		sw.params.observe(sw.sim.Now(), ObsUnroutable, sw.name, d)
		d.ReturnCredit()
		sw.params.release(d, ObsUnroutable)
		return
	}
	d.Hops++
	sw.Counters.Add(SwForwarded, 1)
	sw.params.observe(sw.sim.Now(), ObsForward, sw.name, d)
	ch.enqueue(d)
}
