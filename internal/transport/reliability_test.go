package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// connectRC builds a connected RC pair between nodes 0 and 3 of a world.
func connectRC(t *testing.T, w *world, auth bool) (*QP, *QP) {
	t.Helper()
	a := w.eps[0].CreateRCQP(pkeyAB)
	b := w.eps[3].CreateRCQP(pkeyAB)
	a.AuthRequired = auth
	b.AuthRequired = auth
	done := false
	if err := w.eps[0].ConnectRC(a, topology.LIDOf(3), b.N, func(err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !done {
		t.Fatal("RC connect incomplete")
	}
	return a, b
}

func TestRCAckCompletesSend(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	var got []byte
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append([]byte(nil), p...) }

	if err := w.eps[0].SendRC(a, []byte("reliable"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("reliable")) {
		t.Fatalf("payload %q", got)
	}
	if w.eps[3].Counters.Value(EpRCAcksSent) != 1 {
		t.Fatalf("acks sent = %d", w.eps[3].Counters.Value(EpRCAcksSent))
	}
	if w.eps[0].Counters.Value(EpRCAcksReceived) != 1 {
		t.Fatalf("acks received = %d", w.eps[0].Counters.Value(EpRCAcksReceived))
	}
	if len(a.rc().unacked) != 0 {
		t.Fatal("unacked queue not drained")
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) != 0 {
		t.Fatal("spurious retransmissions on a clean path")
	}
	if a.Broken() {
		t.Fatal("connection marked broken")
	}
}

// dropFilter drops the first n matching data packets at the switch.
type dropFilter struct {
	remaining int
}

func (f *dropFilter) Inspect(_ *fabric.Switch, _ int, _ bool, d *fabric.Delivery) (bool, sim.Time) {
	if f.remaining > 0 && d.Pkt.BTH.OpCode == packet.RCSendOnly {
		f.remaining--
		return true, 0
	}
	return false, 0
}

// A dropped request must be retransmitted and eventually delivered
// exactly once.
func TestRCRetransmitAfterLoss(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	var deliveries [][]byte
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) {
		deliveries = append(deliveries, append([]byte(nil), p...))
	}
	// Drop the first data packet on node 0's ingress switch.
	w.mesh.SwitchOf(0).SetFilter(&dropFilter{remaining: 1})

	if err := w.eps[0].SendRC(a, []byte("lost once"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if len(deliveries) != 1 || !bytes.Equal(deliveries[0], []byte("lost once")) {
		t.Fatalf("deliveries = %v", deliveries)
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) == 0 {
		t.Fatal("no retransmission recorded")
	}
	if a.Broken() {
		t.Fatal("connection broken despite successful retry")
	}
}

// When the path drops everything, the requester gives up after
// MaxRetries and marks the connection broken.
func TestRCBreaksAfterMaxRetries(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	n := 0
	b.OnRecv = func([]byte, packet.LID, packet.QPN) { n++ }
	w.mesh.SwitchOf(0).SetFilter(&dropFilter{remaining: 1 << 30})

	if err := w.eps[0].SendRC(a, []byte("doomed"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if n != 0 {
		t.Fatal("delivered through a black hole")
	}
	if !a.Broken() {
		t.Fatal("connection not marked broken")
	}
	if w.eps[0].Counters.Value(EpRCBroken) != 1 {
		t.Fatal("rc_broken not counted")
	}
	// 7 retry rounds x 1 packet.
	if got := w.eps[0].Counters.Value(EpRCRetransmissions); got != defaultMaxRetries {
		t.Fatalf("retransmissions = %d, want %d", got, defaultMaxRetries)
	}
}

// A duplicated request (e.g. a retransmission racing a slow ACK) must be
// re-acknowledged but delivered only once.
func TestRCDuplicateSuppression(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	n := 0
	b.OnRecv = func([]byte, packet.LID, packet.QPN) { n++ }

	// Capture the data packet and replay it after delivery.
	var captured *packet.Packet
	inner := w.mesh.HCA(3).OnDeliver
	w.mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		if captured == nil && d.Pkt.BTH.OpCode == packet.RCSendOnly {
			captured = d.Pkt.Clone()
		}
		inner(d)
	}
	if err := w.eps[0].SendRC(a, []byte("once"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	w.mesh.HCA(0).Send(&fabric.Delivery{Pkt: captured, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if n != 1 {
		t.Fatalf("delivered %d times", n)
	}
	if w.eps[3].Counters.Value(EpRCDuplicates) != 1 {
		t.Fatal("duplicate not counted")
	}
	if w.eps[3].Counters.Value(EpRCAcksSent) != 2 {
		t.Fatalf("acks sent = %d, want re-ack", w.eps[3].Counters.Value(EpRCAcksSent))
	}
}

// Multiple pipelined sends arrive in order and a single cumulative ACK
// flow keeps the window moving.
func TestRCPipelinedOrdering(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }
	msgs := []string{"m0", "m1", "m2", "m3", "m4"}
	for _, m := range msgs {
		if err := w.eps[0].SendRC(a, []byte(m), fabric.ClassRealtime); err != nil {
			t.Fatal(err)
		}
	}
	w.s.Run()
	if len(got) != len(msgs) {
		t.Fatalf("delivered %d/%d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if got[i] != m {
			t.Fatalf("order broken: %v", got)
		}
	}
	if len(a.rc().unacked) != 0 {
		t.Fatal("window not drained")
	}
}

// Authenticated RC: ACKs are signed and verified; forged data that fails
// the tag check looks like loss and the sender retries then breaks —
// while the legitimate stream keeps working.
func TestRCAuthenticatedAcks(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	a, b := connectRC(t, w, true)
	var got []byte
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append([]byte(nil), p...) }
	if err := w.eps[0].SendRC(a, []byte("signed rc"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("signed rc")) {
		t.Fatalf("payload %q", got)
	}
	// Both the data packet and the ACK were verified.
	if w.eps[3].Counters.Value(EpAuthOK) != 1 {
		t.Fatalf("responder auth_ok = %d", w.eps[3].Counters.Value(EpAuthOK))
	}
	if w.eps[0].Counters.Value(EpAuthOK) != 1 {
		t.Fatalf("requester auth_ok (ACK) = %d", w.eps[0].Counters.Value(EpAuthOK))
	}
	if a.Broken() || b.Broken() {
		t.Fatal("healthy connection marked broken")
	}
}

// RDMA writes ride the same reliability machinery.
func TestRCReliableRDMA(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	region := w.eps[3].RegisterMemory(64)
	w.mesh.SwitchOf(0).SetFilter(&dropFilterRDMA{remaining: 1})

	if err := w.eps[0].RDMAWrite(a, region.VA, region.RKey, []byte("dma"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(region.Data[:3], []byte("dma")) {
		t.Fatalf("region = %q", region.Data[:3])
	}
	if w.eps[3].Counters.Value(EpRDMAWrites) != 1 {
		t.Fatalf("rdma_writes = %d (duplicate applied?)", w.eps[3].Counters.Value(EpRDMAWrites))
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) == 0 {
		t.Fatal("no retransmission")
	}
}

type dropFilterRDMA struct{ remaining int }

func (f *dropFilterRDMA) Inspect(_ *fabric.Switch, _ int, _ bool, d *fabric.Delivery) (bool, sim.Time) {
	if f.remaining > 0 && d.Pkt.BTH.OpCode == packet.RCRDMAWriteOnly {
		f.remaining--
		return true, 0
	}
	return false, 0
}

// End-to-end failure injection: with real link bit errors, RC traffic
// still arrives intact because corrupted packets are CRC-dropped and
// retransmitted.
func TestRCRecoversThroughBitErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	params := fabric.DefaultParams()
	params.BitErrorRate = 1e-5
	params.RNG = rand.New(rand.NewSource(44))
	s := sim.New()
	mesh := topology.NewMesh(s, params, 2, 2)
	for i := 0; i < 4; i++ {
		mesh.HCA(i).PKeyTable.Add(pkeyAB)
	}
	mk := func(i int) *Endpoint {
		return NewEndpoint(mesh.HCA(i), Config{RNG: rng})
	}
	src, dst := mk(0), mk(3)

	a := src.CreateRCQP(pkeyAB)
	b := dst.CreateRCQP(pkeyAB)
	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }
	ok := false
	src.ConnectRC(a, topology.LIDOf(3), b.N, func(err error) { ok = err == nil })
	s.Run()
	if !ok {
		t.Fatal("connect failed under BER (control packets may retry via upper layers)")
	}

	const n = 60
	for i := 0; i < n; i++ {
		if err := src.SendRC(a, []byte{byte('a' + i%26)}, fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if a.Broken() {
		t.Fatal("connection broke despite retransmission budget")
	}
	if len(got) != n {
		t.Fatalf("delivered %d/%d", len(got), n)
	}
	for i, m := range got {
		if m != string([]byte{byte('a' + i%26)}) {
			t.Fatalf("ordering/content broken at %d: %q", i, m)
		}
	}
	retx := src.Counters.Value(EpRCRetransmissions)
	crcDrops := uint64(0)
	for _, sw := range mesh.Switches {
		crcDrops += sw.Counters.Value(fabric.SwVCRCDrops)
	}
	for i := 0; i < 4; i++ {
		crcDrops += mesh.HCA(i).Counters.Value(fabric.HCAVCRCDrops) + mesh.HCA(i).Counters.Value(fabric.HCAICRCDrops)
	}
	if crcDrops == 0 || retx == 0 {
		t.Fatalf("no corruption exercised: drops=%d retx=%d (weak BER?)", crcDrops, retx)
	}
}

func TestPSNBefore(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xFFFFFF, 0, true}, // wraparound
		{0, 0xFFFFFF, false},
		{100, 0x800000 + 99, true}, // just inside the window
	}
	for _, c := range cases {
		if got := psnBefore(c.a, c.b); got != c.want {
			t.Errorf("psnBefore(%#x, %#x) = %v", c.a, c.b, got)
		}
	}
}

// RC keeps one copy per unacknowledged request, taken from the endpoint's
// pool: the acknowledgement returns it and the next send takes it again,
// and a retransmission is drawn from the fabric's free list as a message
// of its own, parsed from the copy.
func TestRCCopiesRecycled(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a retransmit copy")
	}
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectRC(t, w, false)
	ep := w.eps[0]
	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }
	send := func(msg string) *pendingSend {
		if err := ep.SendRC(a, []byte(msg), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
		return a.rc().unacked[0]
	}
	first := send("first")
	w.s.Run()
	if len(a.rc().unacked) != 0 || len(ep.copies) != 1 || ep.copies[0] != first {
		t.Fatalf("the acknowledged copy did not return to the pool: %d unacked, %d pooled", len(a.rc().unacked), len(ep.copies))
	}
	w.mesh.SwitchOf(0).SetFilter(&dropFilter{remaining: 1})
	if again := send("second, lost once"); again != first {
		t.Fatal("the next send did not reuse the pooled copy")
	}
	w.s.Run()
	if n := ep.Counters.Value(EpRCRetransmissions); n != 1 {
		t.Fatalf("%d retransmissions, want 1", n)
	}
	if len(got) != 2 || got[1] != "second, lost once" {
		t.Fatalf("delivered %q", got)
	}
	if len(ep.copies) != 1 {
		t.Fatalf("%d copies pooled after the retransmission's ACK, want 1", len(ep.copies))
	}
}

// In the poison build an RC copy read after the acknowledgement that
// retires it faults: its image reads the poison bytes, and a resend from
// it panics instead of sending stale bytes.
func TestRCCopyPoisonedAtAck(t *testing.T) {
	if !fabric.PoolPoison {
		t.Skip("use-after-release is detected only under -tags poolpoison")
	}
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	if err := w.eps[0].SendRC(a, []byte("held past its ack"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	ps := a.rc().unacked[0]
	held := ps.img
	w.s.Run()
	if len(a.rc().unacked) != 0 {
		t.Fatal("the request was not acknowledged")
	}
	for i, c := range held {
		if c != 0xDB {
			t.Fatalf("copy byte %d reads %#x after the ACK, want the poison 0xdb", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("resending from a released copy did not fault")
		}
	}()
	w.eps[0].HCA().Params().NewMessageImage(ps.class, ps.img)
}
