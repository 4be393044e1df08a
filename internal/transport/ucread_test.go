package transport

import (
	"bytes"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

func connectUC(t *testing.T, w *world, auth bool) (*QP, *QP) {
	t.Helper()
	a := w.eps[0].CreateUCQP(pkeyAB)
	b := w.eps[3].CreateUCQP(pkeyAB)
	a.AuthRequired = auth
	b.AuthRequired = auth
	done := false
	if err := w.eps[0].ConnectUC(a, topology.LIDOf(3), b.N, func(err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !done {
		t.Fatal("UC connect incomplete")
	}
	return a, b
}

func TestUCSendDelivery(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectUC(t, w, false)
	var got []byte
	var gotSrcQP packet.QPN
	b.OnRecv = func(p []byte, _ packet.LID, sq packet.QPN) { got = append([]byte(nil), p...); gotSrcQP = sq }

	if err := w.eps[0].SendUC(a, []byte("unreliable but connected"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("unreliable but connected")) {
		t.Fatalf("payload %q", got)
	}
	if gotSrcQP != a.N {
		t.Fatalf("srcQP = %d", gotSrcQP)
	}
	// UC is unacknowledged: no ACK machinery involved.
	if w.eps[3].Counters.Value(EpRCAcksSent) != 0 {
		t.Fatal("UC generated acknowledgements")
	}
	if a.rcs != nil && len(a.rcs.unacked) > 0 {
		t.Fatal("UC tracked reliability state")
	}
}

// UC packets carry no DETH: the wire format must not contain a Q_Key.
func TestUCHasNoQKey(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectUC(t, w, false)

	var captured *packet.Packet
	inner := w.mesh.HCA(3).OnDeliver
	w.mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		if d.Pkt.BTH.OpCode == packet.UCSendOnly {
			captured = d.Pkt
		}
		inner(d)
	}
	w.eps[0].SendUC(a, []byte("x"), fabric.ClassBestEffort)
	w.s.Run()
	if captured == nil {
		t.Fatal("no UC packet observed")
	}
	if captured.DETH != nil {
		t.Fatal("UC packet carries a DETH/Q_Key")
	}
}

// A UC packet lost to the fabric stays lost — no retransmission.
func TestUCLossIsSilent(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, b := connectUC(t, w, false)
	n := 0
	b.OnRecv = func([]byte, packet.LID, packet.QPN) { n++ }
	w.mesh.SwitchOf(0).SetFilter(&dropFilterUC{remaining: 1})

	w.eps[0].SendUC(a, []byte("gone"), fabric.ClassBestEffort)
	w.eps[0].SendUC(a, []byte("here"), fabric.ClassBestEffort)
	w.s.Run()
	if n != 1 {
		t.Fatalf("delivered %d, want exactly the undropped packet", n)
	}
	if w.eps[0].Counters.Value(EpRCRetransmissions) != 0 {
		t.Fatal("UC retransmitted")
	}
}

type dropFilterUC struct{ remaining int }

func (f *dropFilterUC) Inspect(_ *fabric.Switch, _ int, _ bool, d *fabric.Delivery) (bool, sim.Time) {
	if f.remaining > 0 && d.Pkt.BTH.OpCode == packet.UCSendOnly {
		f.remaining--
		return true, 0
	}
	return false, 0
}

func TestUCAuthenticated(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	a, b := connectUC(t, w, true)
	var got []byte
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append([]byte(nil), p...) }
	if err := w.eps[0].SendUC(a, []byte("signed uc"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("signed uc")) {
		t.Fatalf("payload %q", got)
	}
	if w.eps[3].Counters.Value(EpAuthOK) != 1 {
		t.Fatal("UC auth verification missing")
	}
}

func TestUCSendBeforeConnectFails(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a := w.eps[0].CreateUCQP(pkeyAB)
	if err := w.eps[0].SendUC(a, []byte("x"), fabric.ClassBestEffort); err == nil {
		t.Fatal("send on unconnected UC QP succeeded")
	}
	rc := w.eps[0].CreateRCQP(pkeyAB)
	if err := w.eps[0].SendUC(rc, []byte("x"), fabric.ClassBestEffort); err == nil {
		t.Fatal("SendUC accepted an RC QP")
	}
}

// ---- RDMA Read ----

func TestRDMARead(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	region := w.eps[3].RegisterMemory(128)
	copy(region.Data[32:], []byte("remote secret"))

	var got []byte
	err := w.eps[0].RDMARead(a, region.VA+32, region.RKey, 13, fabric.ClassBestEffort, func(data []byte) {
		got = append([]byte(nil), data...)
	})
	if err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("remote secret")) {
		t.Fatalf("read %q", got)
	}
	if w.eps[3].Counters.Value(EpRDMAReads) != 1 {
		t.Fatal("read not counted at responder")
	}
	if w.eps[0].Counters.Value(EpRDMAReadCompleted) != 1 {
		t.Fatal("completion not counted")
	}
	// The response implicitly acknowledged the request.
	if len(a.rc().unacked) != 0 {
		t.Fatal("read request left unacked")
	}
}

func TestRDMAReadBadRKey(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	region := w.eps[3].RegisterMemory(64)

	called := false
	w.eps[0].RDMARead(a, region.VA, packet.RKey(0xBAD), 8, fabric.ClassBestEffort, func([]byte) { called = true })
	// The request will be retried and eventually break the connection;
	// bound the run.
	w.s.RunUntil(2 * sim.Millisecond)
	if called {
		t.Fatal("read with bad R_Key completed")
	}
	if w.eps[3].Counters.Value(EpRKeyViolations) == 0 {
		t.Fatal("rkey violation not counted")
	}
}

func TestRDMAReadBounds(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	region := w.eps[3].RegisterMemory(64)
	called := false
	w.eps[0].RDMARead(a, region.VA+60, region.RKey, 16, fabric.ClassBestEffort, func([]byte) { called = true })
	w.s.RunUntil(2 * sim.Millisecond)
	if called {
		t.Fatal("out-of-bounds read completed")
	}
	if w.eps[3].Counters.Value(EpRDMABoundsViolations) == 0 {
		t.Fatal("bounds violation not counted")
	}
}

// RDMA read with authentication: both request and response are signed.
func TestRDMAReadAuthenticated(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	a, _ := connectRC(t, w, true)
	region := w.eps[3].RegisterMemory(64)
	copy(region.Data, []byte("signed read"))
	var got []byte
	w.eps[0].RDMARead(a, region.VA, region.RKey, 11, fabric.ClassBestEffort, func(d []byte) { got = append([]byte(nil), d...) })
	w.s.Run()
	if !bytes.Equal(got, []byte("signed read")) {
		t.Fatalf("read %q", got)
	}
	// Request verified at responder, response verified at requester.
	if w.eps[3].Counters.Value(EpAuthOK) != 1 || w.eps[0].Counters.Value(EpAuthOK) != 1 {
		t.Fatalf("auth counters: responder=%d requester=%d",
			w.eps[3].Counters.Value(EpAuthOK), w.eps[0].Counters.Value(EpAuthOK))
	}
}

func TestRDMAReadTooLarge(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	if err := w.eps[0].RDMARead(a, 0, 0, packet.MTU+1, fabric.ClassBestEffort, nil); err == nil {
		t.Fatal("oversized read accepted")
	}
}
