package transport

import (
	"fmt"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// PSNs live in a 24-bit circular sequence space (IBA 9.7.1); comparisons
// must hold at every point of the circle, not just near zero. These are
// property-style checks over random points and the exact boundaries.
func TestPSNBeforeWrapProperties(t *testing.T) {
	const mask = 0xFFFFFF
	const half = 1 << 23
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 10_000; i++ {
		a := uint32(rng.Intn(mask + 1))
		d := uint32(1 + rng.Intn(half-1)) // strictly inside the window
		b := (a + d) & mask
		if !psnBefore(a, b) {
			t.Fatalf("psnBefore(%#x, %#x) = false with delta %#x", a, b, d)
		}
		if psnBefore(b, a) {
			t.Fatalf("psnBefore is not antisymmetric at (%#x, %#x)", b, a)
		}
		if psnBefore(a, a) {
			t.Fatalf("psnBefore(%#x, %#x) reflexive", a, a)
		}
	}

	// The half-window point is ambiguous by construction and must order
	// neither way — the requester's window can never legally span it.
	for _, a := range []uint32{0, 1, mask, half - 1, half, 0x123456} {
		b := (a + half) & mask
		if psnBefore(a, b) || psnBefore(b, a) {
			t.Fatalf("half-window pair (%#x, %#x) ordered", a, b)
		}
	}
}

// dropPSNFilter drops the first copy of the RC request carrying a given
// PSN.
type dropPSNFilter struct {
	psn       uint32
	remaining int
}

func (f *dropPSNFilter) Inspect(_ *fabric.Switch, _ int, _ bool, d *fabric.Delivery) (bool, sim.Time) {
	if f.remaining > 0 && d.Pkt.BTH.OpCode == packet.RCSendOnly && d.Pkt.BTH.PSN == f.psn {
		f.remaining--
		return true, 0
	}
	return false, 0
}

// wrapRC connects an RC pair and advances both sides to just below the
// 24-bit wrap point, as if ~16M requests had already been exchanged.
func wrapRC(t *testing.T, w *world, start uint32) (*QP, *QP) {
	t.Helper()
	a, b := connectRC(t, w, false)
	a.psn = start
	b.rc().ePSN = start
	b.rc().gotAny = true
	return a, b
}

// A pipelined burst whose PSNs cross 0xFFFFFF -> 0 is delivered in order
// and the cumulative ACK flow drains the whole window.
func TestRCPipelineAcrossPSNWrap(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := wrapRC(t, w, 0xFFFFFD)

	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }

	// Capture the first in-flight data packet for a replay below.
	var captured *packet.Packet
	inner := w.mesh.HCA(3).OnDeliver
	w.mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		if captured == nil && d.Pkt.BTH.OpCode == packet.RCSendOnly {
			captured = d.Pkt.Clone()
		}
		inner(d)
	}

	const n = 6 // PSNs 0xFFFFFD..0xFFFFFF, 0, 1, 2
	for i := 0; i < n; i++ {
		if err := w.eps[0].SendRC(a, []byte(fmt.Sprintf("m%d", i)), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
	}
	w.s.Run()

	if len(got) != n {
		t.Fatalf("delivered %d/%d across the wrap", len(got), n)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken across wrap: %v", got)
		}
	}
	if b.rc().ePSN != 3 {
		t.Fatalf("responder ePSN = %#x, want 3", b.rc().ePSN)
	}
	if len(a.rc().unacked) != 0 {
		t.Fatal("window not drained: post-wrap ACKs failed to release pre-wrap sends")
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) != 0 {
		t.Fatal("spurious retransmissions on a clean wrap")
	}

	// A duplicate from before the wrap must still be recognised as a
	// duplicate (0xFFFFFD precedes ePSN 3 on the circle) and re-acked.
	w.mesh.HCA(0).Send(&fabric.Delivery{Pkt: captured, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if len(got) != n {
		t.Fatalf("pre-wrap duplicate re-delivered: %v", got)
	}
	if w.eps[3].Counters.Value(EpRCDuplicates) != 1 {
		t.Fatal("pre-wrap duplicate not recognised after the wrap")
	}
}

// The decisive wrap case: the packet lost is the first one after the
// wrap (PSN 0), so the responder sits at ePSN == 0 with a gap — exactly
// the state where "ePSN == 0" must not be mistaken for "nothing received
// yet". Every out-of-order arrival must still draw the go-back ACK, and
// retransmission must carry the burst through in order.
func TestRCRetransmissionStraddlesWrap(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := wrapRC(t, w, 0xFFFFFD)
	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }
	w.mesh.SwitchOf(0).SetFilter(&dropPSNFilter{psn: 0, remaining: 1})

	const n = 6
	for i := 0; i < n; i++ {
		if err := w.eps[0].SendRC(a, []byte(fmt.Sprintf("m%d", i)), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
	}
	w.s.Run()

	if len(got) != n {
		t.Fatalf("delivered %d/%d: %v", len(got), n, got)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if a.Broken() {
		t.Fatal("connection broke straddling the wrap")
	}
	if len(a.rc().unacked) != 0 {
		t.Fatal("window not drained")
	}
	if b.rc().ePSN != 3 {
		t.Fatalf("responder ePSN = %#x, want 3", b.rc().ePSN)
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) == 0 {
		t.Fatal("loss at the wrap point produced no retransmission")
	}
	ooo := w.eps[3].Counters.Value(EpRCOutOfOrder)
	if ooo == 0 {
		t.Fatal("post-loss arrivals not seen as out of order")
	}
	// Every delivery, duplicate and gap emits exactly one cumulative
	// ACK — the gap ACKs at ePSN == 0 must not be suppressed.
	want := uint64(n) + w.eps[3].Counters.Value(EpRCDuplicates) + ooo
	if acks := w.eps[3].Counters.Value(EpRCAcksSent); acks != want {
		t.Fatalf("acks sent = %d, want %d (go-back ACK suppressed at ePSN 0?)", acks, want)
	}
}

// The explicit-NAK path at the wrap point: losing PSN 0 with ePSN == 0
// makes the NAK name (ePSN-1) & mask == 0xFFFFFF — a legal cumulative
// point one past the wrap. The requester must trim its pre-wrap sends by
// that MSN, go back immediately, and drain the window without waiting
// out a retry period.
func TestRCNakRetransmissionAcrossWrap(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	for _, ep := range w.eps {
		ep.cfg.EnableNAK = true
	}
	a, b := wrapRC(t, w, 0xFFFFFD)
	var got []string
	var doneAt sim.Time
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) {
		got = append(got, string(p))
		doneAt = w.s.Now()
	}
	w.mesh.SwitchOf(0).SetFilter(&dropPSNFilter{psn: 0, remaining: 1})

	const n = 6 // PSNs 0xFFFFFD..0xFFFFFF, 0 (lost), 1, 2
	start := w.s.Now()
	for i := 0; i < n; i++ {
		if err := w.eps[0].SendRC(a, []byte(fmt.Sprintf("m%d", i)), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
	}
	w.s.Run()

	if len(got) != n {
		t.Fatalf("delivered %d/%d: %v", len(got), n, got)
	}
	for i := range got {
		if got[i] != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken: %v", got)
		}
	}
	if a.Broken() {
		t.Fatal("connection broke on a NAK-recovered wrap")
	}
	if b.rc().ePSN != 3 {
		t.Fatalf("responder ePSN = %#x, want 3", b.rc().ePSN)
	}
	if len(a.rc().unacked) != 0 {
		t.Fatal("window not drained: the 0xFFFFFF MSN failed to release pre-wrap sends")
	}
	// One gap episode, one NAK — the later out-of-order arrivals (PSNs 1
	// and 2) are coalesced into it.
	if naks := w.eps[3].Counters.Value(EpRCNAKsSent); naks != 1 {
		t.Fatalf("naks sent = %d, want 1", naks)
	}
	if naks := w.eps[0].Counters.Value(EpRCNAKsReceived); naks != 1 {
		t.Fatalf("naks received = %d, want 1", naks)
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) == 0 {
		t.Fatal("no retransmission despite the loss")
	}
	// NAK recovery is responder-clocked: the whole burst completes well
	// inside one retry period.
	if doneAt-start >= defaultRetryTimeout {
		t.Fatalf("NAK recovery across the wrap took %v, expected under %v", doneAt-start, defaultRetryTimeout)
	}
}
