package fabric

import (
	"math"
	"strings"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

func mkPkt(src, dst packet.LID, vl uint8, payload int) *packet.Packet {
	p := &packet.Packet{
		LRH:  packet.LRH{VL: vl, SLID: src, DLID: dst},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1},
		DETH: &packet.DETH{QKey: 1, SrcQP: 1},
	}
	p.Payload = make([]byte, payload)
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	return p
}

// twoHCAs builds hcaA <-> switch <-> hcaB.
func twoHCAs(t *testing.T, params *Params) (*sim.Simulator, *HCA, *HCA, *Switch) {
	t.Helper()
	s := sim.New()
	sw := NewSwitch(s, params, "sw", 5)
	a := NewHCA(s, params, "A", 1)
	b := NewHCA(s, params, "B", 2)
	Connect(s, params, a, 0, sw, 0)
	Connect(s, params, b, 0, sw, 1)
	sw.MarkIngress(0)
	sw.MarkIngress(1)
	sw.SetRoute(1, 0)
	sw.SetRoute(2, 1)
	a.PKeyTable.Add(packet.PKey(0x8001))
	b.PKeyTable.Add(packet.PKey(0x8001))
	return s, a, b, sw
}

func TestParamsDefaults(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.ByteTime() != 3200*sim.Picosecond {
		t.Fatalf("ByteTime = %v, want 3.2ns at 2.5 Gb/s", p.ByteTime())
	}
	if got := p.SerializationDelay(1000); got != 3200*sim.Nanosecond {
		t.Fatalf("SerializationDelay(1000) = %v", got)
	}
	if p.VLPriority[VLRealtime] <= p.VLPriority[VLBestEffort] {
		t.Fatal("realtime VL must outrank best-effort")
	}
	if p.VLPriority[VLManagement] <= p.VLPriority[VLRealtime] {
		t.Fatal("management VL must outrank realtime")
	}
}

func TestParamsValidate(t *testing.T) {
	p := DefaultParams()
	p.LinkBandwidth = 0
	if p.Validate() == nil {
		t.Fatal("accepted zero bandwidth")
	}
	p = DefaultParams()
	p.CreditsPerVL = 0
	if p.Validate() == nil {
		t.Fatal("accepted zero credits")
	}
	p = DefaultParams()
	p.CreditsPerVL = -4
	if p.Validate() == nil {
		t.Fatal("accepted negative credits")
	}
	p = DefaultParams()
	p.CreditsPerVL = math.MaxInt32
	if err := p.Validate(); err != nil {
		t.Fatalf("refused the largest credit count a lane holds: %v", err)
	}
	if big := int64(math.MaxInt32) + 1; int64(int(big)) == big { // a 64-bit int
		p.CreditsPerVL = int(big)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "credits per VL") {
			t.Fatalf("credits per VL past int32: got %v, want an error naming them", err)
		}
	}
	p = DefaultParams()
	p.PropDelay = -1
	if p.Validate() == nil {
		t.Fatal("accepted negative delay")
	}
	p = DefaultParams()
	p.HOQLife = -sim.Microsecond
	if p.Validate() == nil {
		t.Fatal("accepted negative head-of-queue lifetime")
	}
}

func TestClassVLMapping(t *testing.T) {
	if ClassRealtime.VL() != VLRealtime || ClassBestEffort.VL() != VLBestEffort ||
		ClassManagement.VL() != VLManagement {
		t.Fatal("class/VL mapping broken")
	}
	if ClassRealtime.String() != "realtime" {
		t.Fatal("class name")
	}
}

func TestEndToEndDelivery(t *testing.T) {
	params := DefaultParams()
	s, a, b, sw := twoHCAs(t, params)
	var got *Delivery
	b.OnDeliver = func(d *Delivery) { got = d }

	d := &Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 512), Class: ClassBestEffort, VL: VLBestEffort, Source: "A"}
	a.Send(d)
	s.Run()

	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Hops != 1 {
		t.Fatalf("Hops = %d, want 1", got.Hops)
	}
	if sw.Counters.Value(SwForwarded) != 1 {
		t.Fatalf("switch forwarded = %d", sw.Counters.Value(SwForwarded))
	}
	// Latency sanity: two serializations (HCA->sw, sw->HCA) plus lookup
	// plus two propagation delays.
	wire := got.Pkt.WireSize()
	minLat := 2*params.SerializationDelay(wire) + params.SwitchLookup + 2*params.PropDelay
	if got.NetworkLatency() < minLat {
		t.Fatalf("latency %v < physical minimum %v", got.NetworkLatency(), minLat)
	}
	if got.QueuingTime() != 0 {
		t.Fatalf("queuing time %v on an idle HCA", got.QueuingTime())
	}
	if got.DeliveredAt <= got.InjectedAt || got.InjectedAt < got.EnqueuedAt {
		t.Fatal("timestamp ordering broken")
	}
}

func TestQueuingTimeAccumulates(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	var deliveries []*Delivery
	b.OnDeliver = func(d *Delivery) { deliveries = append(deliveries, d) }

	// Enqueue 5 packets at once: each must wait for the previous one's
	// serialization.
	for i := 0; i < 5; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	s.Run()
	if len(deliveries) != 5 {
		t.Fatalf("delivered %d/5", len(deliveries))
	}
	for i := 1; i < len(deliveries); i++ {
		if deliveries[i].QueuingTime() <= deliveries[i-1].QueuingTime() {
			t.Fatalf("queuing time not increasing: %v then %v",
				deliveries[i-1].QueuingTime(), deliveries[i].QueuingTime())
		}
	}
	ser := params.SerializationDelay(deliveries[0].Pkt.WireSize())
	if q1 := deliveries[1].QueuingTime(); q1 < ser {
		t.Fatalf("second packet queued %v, expected at least one serialization %v", q1, ser)
	}
}

// Realtime packets must overtake queued best-effort packets at the VL
// arbiter (strict priority), the property behind Figure 1's class split.
func TestVLPriorityArbitration(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	var order []Class
	b.OnDeliver = func(d *Delivery) { order = append(order, d.Class) }

	// Fill the best-effort queue first, then add a realtime packet.
	for i := 0; i < 4; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 1024), Class: ClassRealtime, VL: VLRealtime})
	s.Run()

	if len(order) != 5 {
		t.Fatalf("delivered %d/5", len(order))
	}
	// The first packet may already be serializing, but the realtime
	// packet must arrive no later than second.
	pos := -1
	for i, c := range order {
		if c == ClassRealtime {
			pos = i
		}
	}
	if pos > 1 {
		t.Fatalf("realtime packet delivered at position %d: %v", pos, order)
	}
}

// Credit-based flow control: with CreditsPerVL = 1 the sender may have at
// most one packet in flight per VL toward the switch; all packets still
// arrive (no loss, only backpressure — section 3.1: "the IBA network
// accepts a new packet only when there is available buffer").
func TestCreditBackpressureNoLoss(t *testing.T) {
	params := DefaultParams()
	params.CreditsPerVL = 1
	s, a, b, sw := twoHCAs(t, params)
	n := 0
	b.OnDeliver = func(d *Delivery) { n++ }
	for i := 0; i < 20; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 256), Class: ClassBestEffort, VL: VLBestEffort})
	}
	s.Run()
	if n != 20 {
		t.Fatalf("delivered %d/20 with tight credits", n)
	}
	if sw.Counters.Value(SwForwarded) != 20 {
		t.Fatalf("switch forwarded %d", sw.Counters.Value(SwForwarded))
	}
}

func TestPKeyViolationCounter(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	delivered := 0
	b.OnDeliver = func(d *Delivery) { delivered++ }
	var violation *Delivery
	b.OnPKeyViolation = func(_ int, d *Delivery) { violation = d }

	bad := mkPkt(1, 2, VLBestEffort, 64)
	bad.BTH.PKey = 0x7777 // not in B's table
	if err := icrc.Seal(bad); err != nil {
		t.Fatal(err)
	}
	a.Send(&Delivery{Pkt: bad, Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()

	if delivered != 0 {
		t.Fatal("invalid P_Key packet delivered")
	}
	if b.PKeyViolations() != 1 {
		t.Fatalf("violations = %d", b.PKeyViolations())
	}
	if violation == nil {
		t.Fatal("violation hook not fired")
	}
}

func TestSwitchFilterDropsAndCharges(t *testing.T) {
	params := DefaultParams()
	s, a, b, sw := twoHCAs(t, params)
	delivered := 0
	b.OnDeliver = func(d *Delivery) { delivered++ }
	sw.SetFilter(filterFunc(func(_ *Switch, _ int, ingress bool, d *Delivery) (bool, sim.Time) {
		if !ingress {
			t.Error("HCA-facing port not marked ingress")
		}
		return d.Attack, 10 * sim.Nanosecond
	}))

	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort, Attack: true})
	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()

	if delivered != 1 {
		t.Fatalf("delivered %d, want only the legitimate packet", delivered)
	}
	if sw.Counters.Value(SwFiltered) != 1 {
		t.Fatalf("filtered = %d", sw.Counters.Value(SwFiltered))
	}
}

type filterFunc func(sw *Switch, inPort int, ingress bool, d *Delivery) (bool, sim.Time)

func (f filterFunc) Inspect(sw *Switch, inPort int, ingress bool, d *Delivery) (bool, sim.Time) {
	return f(sw, inPort, ingress, d)
}

func TestUnroutableDropped(t *testing.T) {
	params := DefaultParams()
	s, a, _, sw := twoHCAs(t, params)
	a.Send(&Delivery{Pkt: mkPkt(1, 99, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()
	if sw.Counters.Value(SwUnroutable) != 1 {
		t.Fatalf("unroutable = %d", sw.Counters.Value(SwUnroutable))
	}
}

func TestExtraSendDelay(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	var d1, d2 *Delivery
	b.OnDeliver = func(d *Delivery) {
		if d1 == nil {
			d1 = d
		} else {
			d2 = d
		}
	}
	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()
	base := d1.DeliveredAt - d1.EnqueuedAt

	a.ExtraSendDelay = 100 * sim.Nanosecond
	a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
	start := s.Now()
	s.Run()
	withAuth := d2.DeliveredAt - start
	if withAuth < base+100*sim.Nanosecond {
		t.Fatalf("ExtraSendDelay not charged: base %v, with %v", base, withAuth)
	}
}

// TestReturnCreditIdempotent drives the credit fields directly: a
// delivery holding a credit returns it exactly once however often
// ReturnCredit is called, the return lands one propagation delay later
// on the lane named by the tag without an event of its own — nothing
// waits on it — and a return tagged before a link reset is discarded,
// whether it was on the wire at the reset or set out after it: the reset
// already restored the full complement.
func TestReturnCreditIdempotent(t *testing.T) {
	params := DefaultParams()
	s := sim.New()
	sw := NewSwitch(s, params, "sw", 5)
	a := NewHCA(s, params, "A", 1)
	Connect(s, params, a, 0, sw, 0)
	ch := a.port.out
	const vl = VLRealtime
	full := func(when string) {
		t.Helper()
		ch.settle()
		for lane, c := range ch.credits() {
			if int(c) != params.CreditsPerVL {
				t.Fatalf("%s: VL %d has %d credits, want %d", when, lane, c, params.CreditsPerVL)
			}
		}
	}

	ch.setCredits(vl, ch.credits()[vl]-1)
	d := &Delivery{credCh: ch, credTag: ch.tag(vl)}
	d.ReturnCredit()
	d.ReturnCredit()
	if d.credCh != nil {
		t.Fatal("ReturnCredit left the credit attached")
	}
	if n := ch.returns.len(); n != 1 {
		t.Fatalf("two ReturnCredit calls put %d returns on the wire, want 1", n)
	}
	if n := s.Pending(); n != 0 {
		t.Fatalf("a return nothing waits on queued %d events, want none", n)
	}
	ch.settle()
	if int(ch.credits()[vl]) != params.CreditsPerVL-1 {
		t.Fatal("credit restored before the return crossed the wire")
	}
	s.Run()
	if s.Now() != params.PropDelay {
		t.Fatalf("credit return took %v, want the propagation delay %v", s.Now(), params.PropDelay)
	}
	full("after the return")

	// A return on the wire when the link resets, and one minted before a
	// reset but sent after it, must not push the lane past its complement
	// once the link is back.
	ch.setCredits(vl, ch.credits()[vl]-1)
	inFlight := &Delivery{credCh: ch, credTag: ch.tag(vl)}
	inFlight.ReturnCredit()
	stale := &Delivery{credCh: ch, credTag: ch.tag(vl)}
	a.SetLinkState(false)
	a.SetLinkState(true)
	stale.ReturnCredit()
	if n := ch.returns.len(); n != 0 {
		t.Fatalf("%d pre-reset returns still on the wire after the reset", n)
	}
	s.Run()
	full("after pre-reset returns landed")
	(&Delivery{}).ReturnCredit() // holding no credit: a no-op
	if s.Pending() != 0 || ch.returns.len() != 0 {
		t.Fatal("ReturnCredit on a credit-less delivery put a return on the wire")
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	params := DefaultParams()
	s := sim.New()
	sw := NewSwitch(s, params, "sw", 5)
	a := NewHCA(s, params, "A", 1)
	Connect(s, params, a, 0, sw, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double connect")
		}
	}()
	Connect(s, params, a, 0, sw, 1)
}

// drToPort is a MADHandler that forwards every management datagram out
// of one fixed port, the way a transit SMA forwards a directed-route SMP.
type drToPort int

func (p drToPort) HandleMAD(sw *Switch, _ int, d *Delivery) bool {
	sw.SendRaw(int(p), d)
	return true
}

// A directed-route SMP is addressed to the permissive LID, never to the
// receiving HCA's own: its arrival is not an alternate-LID (APM) arrival.
// A data packet routed to the same port under another LID still is.
func TestPermissiveLIDIsNotAnAlternateLID(t *testing.T) {
	s, a, b, sw := twoHCAs(t, DefaultParams())
	sw.SetMADHandler(drToPort(1))
	a.Send(a.Params().NewMAD(a.LID(), packet.LIDPermissive, []byte("a directed-route response")))
	s.Run()
	if got := b.Counters.Value(HCADelivered); got != 1 {
		t.Fatalf("delivered = %d, want the SMP", got)
	}
	if got := b.Counters.Value(HCAAltLIDArrivals); got != 0 {
		t.Fatalf("alt_lid_arrivals = %d after a permissive-LID SMP, want 0", got)
	}
	for _, name := range b.Counters.Names() {
		if name == "alt_lid_arrivals" {
			t.Fatal("alt_lid_arrivals became a column without an arrival")
		}
	}

	const altLID = packet.LID(0x1002)
	sw.SetRoute(altLID, 1)
	a.Send(&Delivery{Pkt: mkPkt(1, altLID, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
	s.Run()
	if got := b.Counters.Value(HCAAltLIDArrivals); got != 1 {
		t.Fatalf("alt_lid_arrivals = %d after an alternate-LID arrival, want 1", got)
	}
}
