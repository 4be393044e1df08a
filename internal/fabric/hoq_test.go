package fabric

import (
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// ringFabric builds a 4-switch unidirectional routing ring with one HCA
// per switch: flow i travels hca_i -> sw_i -> sw_{i+1} -> sw_{i+2} ->
// hca_{i+2}, two clockwise ring hops. Every ring channel therefore holds
// credits for packets that wait on the next ring channel — a cyclic
// credit dependency, the canonical deadlock that dimension-ordered
// routing exists to prevent and that failure rerouting can reintroduce.
func ringFabric(t *testing.T, params *Params) ([]*Switch, []*HCA, *sim.Simulator, *int) {
	t.Helper()
	s := sim.New()
	const n = 4
	sws := make([]*Switch, n)
	hcas := make([]*HCA, n)
	for i := 0; i < n; i++ {
		sws[i] = NewSwitch(s, params, "sw", 5)
		hcas[i] = NewHCA(s, params, "hca", packet.LID(i+1))
		Connect(s, params, hcas[i], 0, sws[i], 0)
	}
	for i := 0; i < n; i++ {
		Connect(s, params, sws[i], 1, sws[(i+1)%n], 2) // port1: clockwise out
	}
	// Clockwise-only routes: local HCA on port 0, everything else on the
	// ring. (Deliberately not shortest-path: the point is the cycle.)
	for i := 0; i < n; i++ {
		for dst := 0; dst < n; dst++ {
			port := 1
			if dst == i {
				port = 0
			}
			sws[i].SetRoute(packet.LID(dst+1), port)
		}
	}
	delivered := new(int)
	for _, h := range hcas {
		h.PKeyTable.Add(0x8001)
		h.OnDeliver = func(d *Delivery) { *delivered++ }
	}
	return sws, hcas, s, delivered
}

func ringBurst(t *testing.T, hcas []*HCA, perFlow int) int {
	t.Helper()
	sent := 0
	for i := range hcas {
		dst := (i + 2) % len(hcas)
		for k := 0; k < perFlow; k++ {
			p := &packet.Packet{
				LRH:     packet.LRH{SLID: packet.LID(i + 1), DLID: packet.LID(dst + 1)},
				BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1, PSN: uint32(k)},
				DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
				Payload: make([]byte, 256),
			}
			if err := icrc.Seal(p); err != nil {
				t.Fatal(err)
			}
			hcas[i].Send(&Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort})
			sent++
		}
	}
	return sent
}

// With single-packet credits and no Head-of-Queue lifetime, the ring
// wedges: every ring channel's credit is held by a packet waiting on the
// next ring channel, and the simulation ends with traffic still queued.
// This is the baseline that proves the recovery test below is testing a
// real deadlock, not a slow drain.
func TestRingCreditDeadlockWithoutHOQ(t *testing.T) {
	params := DefaultParams()
	params.CreditsPerVL = 1
	sws, hcas, s, delivered := ringFabric(t, params)
	sent := ringBurst(t, hcas, 8)
	s.Run()

	stuck := 0
	for _, sw := range sws {
		for p := 0; p < sw.NumPorts(); p++ {
			stuck += sw.QueueDepth(p)
		}
	}
	for _, h := range hcas {
		for vl := uint8(0); vl < NumVLs; vl++ {
			stuck += h.SendQueueLen(vl)
		}
	}
	if *delivered == sent || stuck == 0 {
		t.Fatalf("expected a credit deadlock: delivered %d/%d, %d stuck", *delivered, sent, stuck)
	}
}

// The Head-of-Queue lifetime limit recovers the same ring: expired heads
// are dropped (releasing their upstream credits), the cycle breaks, and
// the network drains completely — every packet either delivered or
// counted as an HOQ drop.
func TestHOQLifetimeBreaksCreditDeadlock(t *testing.T) {
	params := DefaultParams()
	params.CreditsPerVL = 1
	params.HOQLife = 50 * sim.Microsecond
	sws, hcas, s, delivered := ringFabric(t, params)
	sent := ringBurst(t, hcas, 8)
	s.Run()

	var hoq uint64
	for _, sw := range sws {
		hoq += sw.HOQDropped()
	}
	for _, h := range hcas {
		hoq += h.HOQDropped()
	}
	if hoq == 0 {
		t.Fatal("deadlocked ring drained without any HOQ drop")
	}
	if got := *delivered + int(hoq); got != sent {
		t.Fatalf("sent %d but accounted %d (delivered %d + hoq %d)", sent, got, *delivered, hoq)
	}
	for _, sw := range sws {
		for p := 0; p < sw.NumPorts(); p++ {
			if n := sw.QueueDepth(p); n != 0 {
				t.Fatalf("%d packets stuck on %s port %d after HOQ recovery", n, sw.Name(), p)
			}
		}
	}
	for _, h := range hcas {
		for vl := uint8(0); vl < NumVLs; vl++ {
			if h.SendQueueLen(vl) != 0 {
				t.Fatalf("packets stuck in %s send queue after HOQ recovery", h.Name())
			}
		}
	}
}

// A Head-of-Queue clock is armed for a message, not for the block that
// carries it. Here message A arms the clock at the head of A's send lane
// and leaves at once; it is delivered and its block recycled; message B
// draws the same block and, with the lane out of credits, is standing at
// that same head when A's clock runs out, half a lifetime later. The
// stale clock must leave B alone: B has not used up its own lifetime, and
// goes through when the credit returns. (With the block's address as the
// message's only identity, B was discarded at A's deadline.)
func TestHOQClockIgnoresRecycledDelivery(t *testing.T) {
	if PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	params := DefaultParams()
	params.HOQLife = 100 * sim.Microsecond
	s, a, b, _ := twoHCAs(t, params)
	delivered := 0
	b.OnDeliver = func(*Delivery) { delivered++ }

	var sent enqueueLog
	params.Observer = &sent
	send := func() { sendUD(t, a, 2, 0x8001, ClassBestEffort, 64, 0) }
	lane := a.port.out
	send() // t = 0: A's clock runs out at 100 us
	s.ScheduleAt(50*sim.Microsecond, func() {
		lane.settle()                    // A's credit is back
		lane.setCredits(VLBestEffort, 0) // the switch's input buffer is full
		send()                           // B's clock runs out at 150 us
	})
	s.ScheduleAt(110*sim.Microsecond, func() {
		if lane.qlen(VLBestEffort) != 1 {
			t.Error("B was not at the head when A's clock ran out: the test exercises nothing")
		}
	})
	s.ScheduleAt(120*sim.Microsecond, func() {
		lane.setCredits(VLBestEffort, 1)
		lane.trySend()
	})
	s.Run()

	if len(sent) != 2 || sent[0] != sent[1] {
		t.Fatalf("B did not draw A's block (%p): the test exercises nothing", sent)
	}
	if n := a.HOQDropped(); n != 0 || delivered != 2 {
		t.Fatalf("%d HOQ drops, %d of 2 delivered: A's clock discarded B", n, delivered)
	}
}

// enqueueLog records the deliveries handed to HCA.Send, by address.
type enqueueLog []*Delivery

func (l *enqueueLog) Observe(_ sim.Time, kind ObsKind, _ string, d *Delivery) {
	if kind == ObsEnqueue {
		*l = append(*l, d)
	}
}
