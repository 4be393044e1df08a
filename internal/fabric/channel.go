package fabric

import (
	"fmt"
	"math"
	"math/bits"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Device is anything with ports: a switch or an HCA. The fabric calls
// arrive when a packet has fully landed in the device's input buffer on
// the given port; the device must call d.ReturnCredit() exactly once when
// the packet leaves that buffer.
type Device interface {
	Name() string
	arrive(port int, d *Delivery)
}

// Port is one physical port of a device. Its out channel transmits toward
// the link peer; arriving packets are handed to the owning device.
type Port struct {
	owner Device
	id    int
	out   *outChannel

	// health holds the port's IBA PortCounters (swept by the
	// Performance Management plane); trapArmed is the port's
	// threshold-trap arm bit. Both live here rather than in per-switch
	// slices so arming the health plane costs no extra allocations.
	health    PortCounters
	trapArmed bool
}

// Connected reports whether the port has been wired to a peer.
func (p *Port) Connected() bool { return p != nil && p.out != nil }

// outChannel is one direction of a link: the sender-side output queues,
// per-VL credit counters, and the serializer. All state is driven by the
// single simulation goroutine.
type outChannel struct {
	sim    *sim.Simulator
	params *Params
	peer   Device
	peerIn int // peer's port id
	queues [NumVLs]vlQueue
	// credits counts each lane's credits, the returns that have landed
	// included; returns holds those still on the wire back to this
	// sender, and busy is set while the serializer clocks a packet out,
	// until its ticket ser passes. All three lag until settle (see
	// ticket); a link that goes down mid-packet keeps busy set until it
	// comes back up, since nothing finishes on a dead link.
	credits [NumVLs]int
	returns ticketRing
	busy    bool
	// wakeAll makes wake schedule every ticket — the eager schedule,
	// which FuzzLinkSchedule runs the lazy one against. Only tests set it.
	wakeAll bool
	ser     ticket
	due     sim.Time // no later than the earliest live ticket's time
	rr      int      // round-robin cursor: the lane the arbiter's walk starts at
	// queuedBytes tracks the backlog for realtime source backpressure.
	queuedBytes int
	// occupied has bit vl set while queues[vl] is non-empty, so the
	// arbiter visits the one or two lanes in use instead of all sixteen.
	// push and pop keep it exact.
	occupied uint16

	// Weighted-arbitration state (ArbWeighted): per-VL remaining WRR
	// quantum and the consecutive high-priority service counter.
	quantum [NumVLs]int
	hiRun   int

	// Link accounting for utilization reports.
	bytesSent uint64
	busyTime  sim.Time

	// Fault-injection state. A downed channel destroys traffic instead
	// of transmitting it; epoch invalidates events and tickets
	// (serializer completions, credit returns) from before the last
	// link-state transition, so a reset cannot double-return credits.
	// Both stay at their zero values unless a fault plan drives them.
	down       bool
	epoch      uint64
	blackholed uint64
	ownerName  string

	// hoqDropped counts packets aged out by the Head-of-Queue lifetime
	// limit (Params.HOQLife), per VL.
	hoqDropped [NumVLs]uint64

	// Congestion Control Annex state. ccThreshold is the per-VL
	// queue-depth marking threshold this channel was programmed with
	// (zero until the SM's congestion manager programs the owning
	// switch); fecnMarked counts packets marked on this port.
	ccThreshold int
	fecnMarked  uint64

	// Performance Management state. health points at the owning port's
	// IBA error counters (set at bind; every increment site is an error
	// path, so a clean run never touches them); healthSw, when non-nil,
	// is the owning switch whose threshold trap is checked after each
	// error increment (fields rather than a closure so binding costs no
	// allocation). berOverride, when berSet, replaces the fabric-wide
	// BitErrorRate for this one link direction — the per-link
	// gray-failure injection the health experiment drives.
	health      *PortCounters
	healthSw    *Switch
	healthPort  int
	berOverride float64
	berSet      bool

	// Credit-stall accounting: time spent with packets queued but no
	// eligible VL (every backlogged VL out of credits) while the
	// serializer is idle — the HOL-blocking signature a congestion tree
	// spreads upstream.
	stalled     bool
	stallSince  sim.Time
	creditStall sim.Time
}

// vlQueue is one VL's output FIFO: a power-of-two ring that grows by
// doubling and otherwise reuses its backing array, so a queue in steady
// state allocates nothing (the fill/next_idx shape of iPXE's
// ib_work_queue). A plain slice popped with q = q[1:] walks off its
// array, so append reallocates forever. The zero value is an empty queue.
type vlQueue struct {
	ring []*Delivery // len is zero or a power of two
	next int         // ring index of the head entry
	fill int         // entries queued
}

func (q *vlQueue) len() int { return q.fill }

// head returns the oldest entry; the queue must not be empty.
func (q *vlQueue) head() *Delivery { return q.ring[q.next] }

func (q *vlQueue) push(d *Delivery) {
	if q.fill == len(q.ring) {
		q.regrow(make([]*Delivery, max(2*len(q.ring), 8)))
	}
	q.ring[(q.next+q.fill)&(len(q.ring)-1)] = d
	q.fill++
}

// regrow moves the queue into ring, empty and twice as long as the full
// one, and clears the old ring.
func (q *vlQueue) regrow(ring []*Delivery) {
	n := copy(ring, q.ring[q.next:])
	copy(ring[n:], q.ring[:q.next])
	clear(q.ring)
	q.ring, q.next = ring, 0
}

// pop removes and returns the oldest entry; the queue must not be empty.
func (q *vlQueue) pop() *Delivery {
	d := q.ring[q.next]
	q.ring[q.next] = nil
	q.next = (q.next + 1) & (len(q.ring) - 1)
	q.fill--
	return d
}

// ticket is a link event whose slot the channel has taken with
// sim.Reserve but whose event it schedules (wake) only when a packet
// waits on it: the serializer freeing or a credit return landing. Both
// happen at every hop and usually find nobody waiting — an empty
// backlog, a sender that is not short of credits — so the channel
// instead treats a ticket as done once sim.Passed says its slot has gone
// by, and settle applies it then. A scheduled ticket fires in its
// reserved slot, exactly where the event scheduled in Reserve's place
// would have, so same-instant ties keep their order.
type ticket struct {
	at     sim.Time
	seq    uint64
	vl     uint8 // a credit return's lane
	queued bool  // its event is on the simulator's queue
}

// never is a time no ticket reaches.
const never = sim.Time(math.MaxInt64)

// before reports whether a's slot comes before b's.
func (a *ticket) before(b *ticket) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// ticketRing is a FIFO of tickets: a power-of-two ring, like vlQueue,
// whose first backing array is its own, so a channel with at most four
// returns on the wire at once never allocates for them. The zero value
// is an empty ring.
type ticketRing struct {
	ring []ticket // len is zero or a power of two
	next int
	fill int
	own  [4]ticket
}

func (r *ticketRing) len() int { return r.fill }

// at returns the i'th oldest entry, which must exist.
func (r *ticketRing) at(i int) *ticket { return &r.ring[(r.next+i)&(len(r.ring)-1)] }

func (r *ticketRing) push(t ticket) {
	if r.fill == len(r.ring) {
		r.grow()
	}
	r.ring[(r.next+r.fill)&(len(r.ring)-1)] = t
	r.fill++
}

// grow moves a full ring to a backing array twice its size: the ring's
// own array first.
func (r *ticketRing) grow() {
	ring := r.own[:]
	if r.ring != nil {
		ring = make([]ticket, 2*len(r.ring))
		n := copy(ring, r.ring[r.next:])
		copy(ring[n:], r.ring[:r.next])
	}
	r.ring, r.next = ring, 0
}

// pop drops the oldest entry, which must exist.
func (r *ticketRing) pop() {
	r.next = (r.next + 1) & (len(r.ring) - 1)
	r.fill--
}

func (r *ticketRing) clear() { r.next, r.fill = 0, 0 }

// The occupancy mask is sixteen bits, one per lane.
var _ = [1]struct{}{}[NumVLs-16]

// push queues d on a lane. A lane's rings come from the fabric's slabs:
// its first from one sized one per channel (Params.firstRing), each
// doubling after from one sized to the end ports (Params.grownRing).
func (c *outChannel) push(vl uint8, d *Delivery) {
	q := &c.queues[vl]
	switch {
	case q.ring == nil:
		q.ring = c.params.firstRing()
	case q.fill == len(q.ring):
		q.regrow(c.params.grownRing(2 * len(q.ring)))
	}
	q.push(d)
	c.occupied |= 1 << vl
}

// pop removes and returns the head of a lane, which must not be empty.
func (c *outChannel) pop(vl uint8) *Delivery {
	q := &c.queues[vl]
	d := q.pop()
	if q.len() == 0 {
		c.occupied &^= 1 << vl
	}
	return d
}

// Connect wires port pa of device a to port pb of device b with a
// full-duplex link using the given parameters; s drives both
// directions. Reconnecting a port panics. A fabric of many links wires
// them through one Links instead.
func Connect(s *sim.Simulator, params *Params, a Device, pa int, b Device, pb int) {
	NewLinks(s, params, 1).Connect(a, pa, b, pb)
}

// Links wires a fabric's links. It validates the parameters once and
// draws each link's two channels from one slab sized to the link count
// it was made for.
type Links struct {
	sim    *sim.Simulator
	params *Params
	chans  []outChannel // the channels not yet wired
}

// NewLinks returns a Links for n links over params, which it validates
// (panicking on an invalid set, like Connect).
func NewLinks(s *sim.Simulator, params *Params, n int) *Links {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	params.slabs().channels += 2 * n
	return &Links{sim: s, params: params, chans: make([]outChannel, 2*n)}
}

// Connect wires port pa of device a to port pb of device b.
func (l *Links) Connect(a Device, pa int, b Device, pb int) {
	if len(l.chans) < 2 {
		panic(fmt.Sprintf("fabric: wiring %s to %s: more links than NewLinks was sized for", a.Name(), b.Name()))
	}
	ach, bch := &l.chans[0], &l.chans[1]
	l.chans = l.chans[2:]
	*ach = outChannel{sim: l.sim, params: l.params, peer: b, peerIn: pb, ownerName: a.Name()}
	*bch = outChannel{sim: l.sim, params: l.params, peer: a, peerIn: pa, ownerName: b.Name()}
	for vl := 0; vl < NumVLs; vl++ {
		ach.credits[vl] = l.params.CreditsPerVL
		bch.credits[vl] = l.params.CreditsPerVL
	}
	bindPort(a, pa, ach)
	bindPort(b, pb, bch)
}

// porter lets Connect reach the devices' port slices without exposing
// them; Switch and HCA implement it.
type porter interface {
	bind(port int, ch *outChannel)
}

func bindPort(d Device, port int, ch *outChannel) {
	p, ok := d.(porter)
	if !ok {
		panic(fmt.Sprintf("fabric: device %s cannot bind ports", d.Name()))
	}
	p.bind(port, ch)
}

// enqueue appends a delivery to the VL's output queue and kicks the
// serializer. A downed link destroys the packet instead.
func (c *outChannel) enqueue(d *Delivery) {
	if int(d.VL) >= NumVLs {
		panic(fmt.Sprintf("fabric: VL %d out of range", d.VL))
	}
	if c.down {
		c.blackhole(d)
		return
	}
	q := &c.queues[d.VL]
	c.push(d.VL, d)
	d.wire = uint16(d.Pkt.WireSize())
	c.queuedBytes += int(d.wire)
	if c.ccThreshold > 0 && d.VL != VLManagement && q.len() >= c.ccThreshold {
		c.markFECN(d)
	}
	if q.len() == 1 {
		c.armHOQ(d.VL)
	}
	c.trySend()
}

// markFECN sets the forward congestion notification bit on a queued
// packet (CC annex A10.2.2.1): the output queue it joined is at or past
// the programmed threshold, so the destination is told a congestion
// tree is forming on its path. The bit lives in the ICRC-variant Resv8a
// byte, so the wire image is patched in place and only the per-link
// VCRC recomputed — neither the end-to-end ICRC nor the authentication
// tag covers it, exactly as a real switch requires.
func (c *outChannel) markFECN(d *Delivery) {
	if d.Pkt.BTH.FECN || d.Malformed {
		return
	}
	d.Pkt.BTH.FECN = true
	wire := d.Pkt.Wire()
	off := packet.LRHSize + 4
	if d.Pkt.GRH != nil {
		off += packet.GRHSize
	}
	wire[off] |= packet.BTHFECNBit
	if err := icrc.PatchVCRC(d.Pkt); err != nil {
		panic(fmt.Sprintf("fabric: resealing FECN-marked packet: %v", err))
	}
	c.fecnMarked++
	c.params.observe(c.sim.Now(), ObsFECNMark, c.ownerName, d)
}

// armHOQ starts the Head-of-Queue lifetime clock for the packet at the
// head of the VL queue. If it is still the unsent head when the clock
// expires, it is discarded and its upstream credit released — the
// forward-progress guarantee that lets the fabric recover from credit
// deadlock (see Params.HOQLife). No-op while the limit is disabled.
func (c *outChannel) armHOQ(vl uint8) {
	if c.params.HOQLife <= 0 || c.queues[vl].len() == 0 {
		return
	}
	d := c.queues[vl].head()
	c.sim.ScheduleCall(c.params.HOQLife, (*hoqExpire)(c), d, uint64(d.generation())<<32|c.tag(vl)&0xFFFFFFFF)
}

// The channel's per-packet events are named handler types over
// outChannel itself, reached by pointer conversion, so scheduling one
// allocates nothing (see sim.Handler). arg is the *Delivery where the
// event concerns one; n is what a closure would have captured — the
// link epoch at scheduling time, and for the events tied to a lane its
// VL, packed by tag. Their slots are taken in a fixed order (the
// serializer's ticket before wireArrive, a credit return's ticket
// wherever ReturnCredit is called): same-instant events fire in slot
// order, so reordering the calls reorders the simulation and moves every
// golden.
//
// Message blocks are recycled (Params.release), so an event may carry a
// *Delivery only while it is the message's one way to a terminal:
// wireArrive (on the wire, in no queue), swMAD and swForward (in the
// switch's input stage until the lookup fires) and hcaInject (in the send
// engine, not yet queued) are. hoqExpire is not — the head it was armed
// for leaves by being sent, and its block can be recycled and at the head
// of the same lane again before the clock runs out — so its operand
// carries the block's generation above the tag.

// tag packs the current link epoch and a VL into an event operand; the
// epoch gains one per link-state transition, so the shift loses nothing.
func (c *outChannel) tag(vl uint8) uint64 { return c.epoch<<8 | uint64(vl) }

// stale reports whether tag was minted before the last link-state
// transition: the event it rides belongs to a link that no longer exists.
func (c *outChannel) stale(tag uint64) bool { return c.epoch != tag>>8 }

// hoqExpire fires when a Head-of-Queue lifetime clock runs out; it acts
// only if the message it was armed for is still the unsent head. n is
// generation<<32 over the low half of tag (2^24 link transitions to wrap).
type hoqExpire outChannel

func (h *hoqExpire) Fire(arg any, n uint64) {
	c, d, vl := (*outChannel)(h), arg.(*Delivery), uint8(n)
	q := &c.queues[vl]
	if uint32(n) != uint32(c.tag(vl)) || uint32(n>>32) != d.generation() ||
		c.down || q.len() == 0 || q.head() != d {
		return
	}
	c.pop(vl)
	c.queuedBytes -= int(d.wire)
	c.hoqDropped[vl]++
	c.noteXmitDiscard()
	c.params.observe(c.sim.Now(), ObsHOQDrop, c.ownerName, d)
	d.ReturnCredit()
	c.params.release(d, ObsHOQDrop)
	c.armHOQ(vl)
	c.trySend()
}

// ticketDue fires in a scheduled ticket's slot: when the serializer has
// clocked a packet's last byte onto the wire, or a credit return has
// travelled back over it. trySend settles the ticket and serves whatever
// waited on it. A ticket from
// before a link transition does nothing: the reset already restored the
// full credit complement and freed the serializer.
type ticketDue outChannel

func (h *ticketDue) Fire(_ any, tag uint64) {
	c := (*outChannel)(h)
	if c.stale(tag) {
		return
	}
	c.trySend()
}

// wireArrive fires when a packet has fully landed at the peer.
type wireArrive outChannel

func (h *wireArrive) Fire(arg any, tag uint64) {
	c, d := (*outChannel)(h), arg.(*Delivery)
	if c.stale(tag) {
		// The link went down (or was reset) while the packet was on
		// the wire: it never reaches the peer.
		c.blackhole(d)
		return
	}
	// Store-and-forward: the peer sees the packet once fully received.
	// The packet now occupies one credit of the peer's input buffer
	// until the peer consumes it.
	d.credCh, d.credTag = c, tag
	c.peer.arrive(c.peerIn, d)
}

// returnCredit puts a credit return on the wire back to this sender: a
// ticket one propagation delay out. A return tagged before the last link
// transition takes its slot all the same but is discarded, as the reset
// already restored the full credit complement.
func (c *outChannel) returnCredit(tag uint64) {
	at := c.sim.Now() + c.params.PropDelay
	seq := c.sim.Reserve(at)
	if c.stale(tag) {
		return
	}
	if c.returns.len() == len(c.returns.ring) {
		c.settle() // land what has passed before the ring grows
	}
	// The delay is the fabric's one constant, so the ring stays in slot
	// order.
	c.returns.push(ticket{at: at, seq: seq, vl: uint8(tag)})
	c.due = min(c.due, at)
	c.wake()
}

// settle applies, in slot order, every ticket whose slot has passed: the
// serializer frees, credits land. A ticket nobody scheduled had no
// packet waiting on it (see wake), so its event would have found the
// link busy or the backlog empty; in the second case, under
// ArbWeighted, that event's arbitration pass refilled every WRR quantum,
// which settle does in its place. Nothing reads the quanta in between:
// only trySend arbitrates, and it settles first.
func (c *outChannel) settle() {
	if c.due <= c.sim.Now() {
		c.settleTickets()
	}
}

// settleTickets is settle past its check that a ticket may have passed.
func (c *outChannel) settleTickets() {
	if c.down {
		return // a transition discarded every ticket
	}
	s, refill := c.sim, false
	for {
		var t *ticket
		if c.returns.len() > 0 {
			t = c.returns.at(0)
		}
		if c.busy && (t == nil || c.ser.before(t)) {
			t = &c.ser
		}
		if t == nil || !s.Passed(t.at, t.seq) {
			break
		}
		queued := t.queued
		if t == &c.ser {
			c.busy = false
		} else {
			c.credits[t.vl]++
			c.returns.pop()
		}
		refill = refill || !queued && !c.busy
	}
	c.due = never
	if c.busy {
		c.due = c.ser.at
	}
	if c.returns.len() > 0 {
		c.due = min(c.due, c.returns.at(0).at)
	}
	if refill && c.params.Arbitration == ArbWeighted {
		c.refillQuanta(true)
		c.refillQuanta(false)
	}
}

// wake schedules the ticket events a packet now waits on: the
// serializer's while a backlog stands behind it, and the oldest credit
// return's while every backlogged lane is out of credits and the link is
// idle (stalled). Each later return is scheduled as it becomes the
// oldest, if the stall lasts. wakeAll schedules every ticket.
func (c *outChannel) wake() {
	if c.stalled || c.busy && c.occupied != 0 && !c.ser.queued || c.wakeAll {
		c.wakeTickets()
	}
}

// wakeTickets is wake past its check that some ticket may be waited on.
func (c *outChannel) wakeTickets() {
	if c.down {
		return
	}
	all, tag := c.wakeAll, c.tag(0)
	if c.busy && !c.ser.queued && (c.occupied != 0 || all) {
		c.ser.queued = true
		c.sim.ScheduleTicket(c.ser.at, c.ser.seq, (*ticketDue)(c), nil, tag)
	}
	n := c.returns.len()
	switch {
	case all:
	case c.stalled:
		n = min(n, 1)
	default:
		n = 0
	}
	for i := 0; i < n; i++ {
		if r := c.returns.at(i); !r.queued {
			r.queued = true
			c.sim.ScheduleTicket(r.at, r.seq, (*ticketDue)(c), nil, tag)
		}
	}
}

// blackhole accounts for a packet destroyed by an injected fault: the
// upstream buffer slot frees as the packet is discarded, so its credit
// is released, and the loss is counted so delivered + rejected +
// blackholed still equals sent.
func (c *outChannel) blackhole(d *Delivery) {
	c.blackholed++
	c.noteXmitDiscard()
	c.params.observe(c.sim.Now(), ObsBlackhole, c.ownerName, d)
	d.ReturnCredit()
	c.params.release(d, ObsBlackhole)
}

// noteXmitDiscard records a discarded-instead-of-transmitted packet in
// the port's PortXmitDiscards counter and runs the owner's threshold-
// trap check.
func (c *outChannel) noteXmitDiscard() {
	if c.health != nil {
		c.health.AddXmitDiscards(1)
	}
	if c.healthSw != nil {
		c.healthSw.checkHealthTrap(c.healthPort)
	}
}

// setDown transitions the channel's link state. Taking the link down
// destroys everything queued; bringing it up starts a new epoch with a
// full credit complement (a link reset retrains flow control per IBA),
// discarding any credit returns still in flight from the old epoch.
func (c *outChannel) setDown(down bool) {
	if c.down == down {
		return
	}
	// Tickets whose slots have passed fired before the transition; the
	// rest would land stale.
	c.settle()
	c.returns.clear()
	c.due = never // the serializer's ticket, if any, is stale too
	c.down = down
	c.epoch++
	if down && c.health != nil {
		c.health.AddLinkDowned(1)
	}
	if c.stalled {
		// Close the open stall interval: a downed link empties its
		// queues, and a fresh link starts with a full credit complement.
		c.creditStall += c.sim.Now() - c.stallSince
		c.stalled = false
	}
	if down {
		for vl := range c.queues {
			for c.queues[vl].len() > 0 {
				c.blackhole(c.pop(uint8(vl)))
			}
			c.queues[vl] = vlQueue{}
		}
		c.queuedBytes = 0
		return
	}
	for vl := 0; vl < NumVLs; vl++ {
		c.credits[vl] = c.params.CreditsPerVL
	}
	c.busy = false
	c.trySend()
}

// QueueLen returns the number of packets waiting on a VL (used by
// realtime sources for admission decisions).
func (c *outChannel) QueueLen(vl uint8) int { return c.queues[vl].len() }

// hoqTotal sums the per-VL Head-of-Queue drop counters.
func (c *outChannel) hoqTotal() uint64 {
	var n uint64
	for vl := range c.hoqDropped {
		n += c.hoqDropped[vl]
	}
	return n
}

// stallTime returns the accumulated credit-stall time, closing any
// open stall interval against now.
func (c *outChannel) stallTime(now sim.Time) sim.Time {
	t := c.creditStall
	if c.stalled {
		t += now - c.stallSince
	}
	return t
}

// backlog returns the occupancy mask rotated so that bit off stands for
// lane (rr+off) % NumVLs: walking its set bits from the lowest visits
// the non-empty lanes in round-robin order from the cursor.
func (c *outChannel) backlog() uint16 {
	return bits.RotateLeft16(c.occupied, -c.rr)
}

// pickVL chooses the next VL to serve according to the configured
// arbiter. A lane is eligible when it has both a queued packet and a
// credit.
func (c *outChannel) pickVL() int {
	if c.params.Arbitration == ArbWeighted {
		return c.pickVLWeighted()
	}
	bestPrio := -1 << 31
	best := -1
	for m := c.backlog(); m != 0; m &= m - 1 {
		vl := (c.rr + bits.TrailingZeros16(m)) % NumVLs
		if c.credits[vl] <= 0 {
			continue
		}
		if p := c.params.VLPriority[vl]; p > bestPrio {
			bestPrio = p
			best = vl
		}
	}
	return best
}

// pickVLWeighted implements the IBA-style two-table arbiter: WRR over
// the high-priority VLs (VLPriority > 0), with one low-priority packet
// forced through after HighPriLimit consecutive high-priority services.
func (c *outChannel) pickVLWeighted() int {
	limit := c.params.HighPriLimit
	if limit <= 0 {
		limit = 4
	}
	pickGroup := func(high bool) int {
		// Two passes: first VLs with remaining quantum, then refill.
		for pass := 0; pass < 2; pass++ {
			for m := c.backlog(); m != 0; m &= m - 1 {
				vl := (c.rr + bits.TrailingZeros16(m)) % NumVLs
				isHigh := c.params.VLPriority[vl] > 0
				if isHigh != high || c.credits[vl] <= 0 {
					continue
				}
				if c.quantum[vl] > 0 {
					c.quantum[vl]--
					return vl
				}
			}
			c.refillQuanta(high) // and retry once
		}
		return -1
	}
	// Anti-starvation: after limit high-priority packets, serve one
	// low-priority packet if any is waiting.
	if c.hiRun >= limit {
		if vl := pickGroup(false); vl >= 0 {
			c.hiRun = 0
			return vl
		}
	}
	if vl := pickGroup(true); vl >= 0 {
		c.hiRun++
		return vl
	}
	if vl := pickGroup(false); vl >= 0 {
		c.hiRun = 0
		return vl
	}
	return -1
}

// refillQuanta resets the WRR quantum of every VL in one priority group
// (VLPriority > 0 is high) to its weight.
func (c *outChannel) refillQuanta(high bool) {
	for vl := 0; vl < NumVLs; vl++ {
		if (c.params.VLPriority[vl] > 0) == high {
			w := c.params.VLWeights[vl]
			if w <= 0 {
				w = 1
			}
			c.quantum[vl] = w
		}
	}
}

// maybeCorrupt applies the link bit-error model: with the per-packet
// strike probability 1-(1-BER)^bits, one uniformly random wire bit is
// flipped and the packet re-parsed. Flips that destroy the framing mark
// the delivery malformed; all strikes taint it for CRC verification
// downstream.
func (c *outChannel) maybeCorrupt(d *Delivery) {
	ber := c.params.BitErrorRate
	if c.berSet {
		// Per-link gray-failure injection: this one link direction
		// corrupts at its own rate, overriding the fabric-wide model.
		ber = c.berOverride
	}
	if ber == 0 {
		return
	}
	bits := d.Pkt.WireSize() * 8
	pStrike := -math.Expm1(float64(bits) * math.Log1p(-ber))
	if c.params.RNG.Float64() >= pStrike {
		return
	}
	if c.health != nil {
		c.health.AddSymbolErrors(1)
	}
	if c.healthSw != nil {
		c.healthSw.checkHealthTrap(c.healthPort)
	}
	wire := d.Pkt.Marshal()
	i := c.params.RNG.Intn(len(wire) * 8)
	wire[i/8] ^= 1 << uint(i%8)
	var q packet.Packet
	if err := q.Unmarshal(wire); err != nil {
		d.Malformed = true
	} else {
		d.Pkt = &q
	}
	d.Tainted = true
}

// trySend settles the tickets that have passed, starts serializing the
// next eligible packet if the link is idle, and schedules the tickets a
// packet now waits on, whose events call it again.
func (c *outChannel) trySend() {
	c.settle()
	if !c.busy && !c.down {
		c.sendNext()
	}
	c.wake()
}

// sendNext starts serializing the next eligible packet on an idle link,
// or opens a credit stall when a backlog has no eligible lane.
func (c *outChannel) sendNext() {
	vl := c.pickVL()
	if vl < 0 {
		if c.queuedBytes > 0 && !c.stalled {
			// Backlog with no eligible VL: every queued lane is out of
			// credits. Clock the stall until a credit return or HOQ
			// expiry makes a lane eligible again.
			c.stalled = true
			c.stallSince = c.sim.Now()
		}
		return
	}
	if c.stalled {
		c.creditStall += c.sim.Now() - c.stallSince
		c.stalled = false
	}
	d := c.pop(uint8(vl))
	c.queuedBytes -= int(d.wire)
	c.armHOQ(uint8(vl))
	c.credits[vl]--
	c.rr = (vl + 1) % NumVLs
	c.busy = true

	// Source injection: stamp the first byte on the wire.
	if !d.injected {
		d.injected = true
		d.InjectedAt = c.sim.Now()
	}
	// The packet leaves the upstream input buffer as it starts down the
	// wire; that frees the upstream credit.
	d.ReturnCredit()

	ser := c.params.SerializationDelay(int(d.wire))
	c.bytesSent += uint64(d.wire)
	c.busyTime += ser
	at := c.sim.Now() + ser
	c.ser = ticket{at: at, seq: c.sim.Reserve(at)}
	c.due = min(c.due, at)
	c.maybeCorrupt(d)
	c.sim.ScheduleCall(ser+c.params.PropDelay, (*wireArrive)(c), d, c.tag(uint8(vl)))
}
