package transport

import (
	"bytes"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// authPair is two endpoints on a 2×1 mesh sharing one partition and its
// UMAC-32 secret, each with a UD QP that signs what it sends and rejects
// what is unsigned. send emits one signed 1 KiB datagram from 0 to 1.
func authPair(tb testing.TB) (s *sim.Simulator, eps [2]*Endpoint, send func()) {
	tb.Helper()
	s = sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 1)
	reg := mac.DefaultRegistry()
	var qps [2]*QP
	for i := range eps {
		if err := mesh.HCA(i).PKeyTable.Add(pkeyAB); err != nil {
			tb.Fatal(err)
		}
		eps[i] = NewEndpoint(mesh.HCA(i), Config{Registry: reg, AuthID: mac.IDUMAC32, KeyLevel: PartitionLevel})
		qps[i] = eps[i].CreateUDQP(pkeyAB, packet.QKey(0x10+i))
		qps[i].AuthRequired = true
	}
	w := &world{eps: eps[:]}
	w.installPartitionSecret()
	payload := bytes.Repeat([]byte{0xA5}, 1024)
	send = func() {
		if err := eps[0].SendUD(qps[0], topology.LIDOf(1), qps[1].N, qps[1].QKey, payload, fabric.ClassBestEffort); err != nil {
			tb.Fatal(err)
		}
	}
	return s, eps, send
}

// detach copies a delivery and its packet out of the fabric's message
// block: what a receiver that keeps a delivery past OnDeliver must do.
func detach(d *fabric.Delivery) *fabric.Delivery {
	c := *d
	c.Pkt = d.Pkt.Clone()
	return &c
}

// A signed 1 KiB datagram costs nothing to send once the fabric's free
// list holds a message block whose image is large enough — one warm-up
// send — and nothing to verify: region scratch, key lookup, both UMAC
// tags and the counters reuse what the endpoints already hold.
func TestSignedSendUDAllocations(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	s, eps, send := authPair(t)
	var captured *fabric.Delivery
	inner := eps[1].HCA().OnDeliver
	eps[1].HCA().OnDeliver = func(d *fabric.Delivery) {
		if captured == nil {
			captured = detach(d)
		}
		inner(d)
	}
	send() // warm-up: its block is the one every later send reuses
	s.Run()
	if captured == nil {
		t.Fatal("no delivery captured")
	}
	if ok := eps[1].Counters.Value(EpAuthOK); ok != 1 {
		t.Fatalf("auth_ok = %d, want 1", ok)
	}

	if got := testing.AllocsPerRun(200, func() { send(); s.Run() }); got != 0 {
		t.Errorf("signed SendUD, delivered, allocated %.1f times per message, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { eps[1].Deliver(captured) }); got != 0 {
		t.Errorf("Deliver of a signed datagram allocated %.1f times, want 0", got)
	}
	if fail := eps[1].Counters.Value(EpAuthFail); fail != 0 {
		t.Fatalf("auth_fail = %d", fail)
	}
}

// A rejected signed datagram is tried against each retired-epoch
// tombstone before it is counted — the forgery path once keys rotate —
// and that costs nothing: neither a datagram signed under a retired
// epoch (auth_epoch_expired at the first tombstone) nor a forged one
// (auth_fail after every tombstone) allocates.
func TestRetiredEpochVerifyAllocations(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	s, eps, send := authPair(t)
	var captured *fabric.Delivery
	inner := eps[1].HCA().OnDeliver
	eps[1].HCA().OnDeliver = func(d *fabric.Delivery) {
		if captured == nil {
			captured = detach(d)
		}
		inner(d)
	}
	send()
	s.Run()
	if captured == nil {
		t.Fatal("no delivery captured")
	}
	// The receiver rolls two epochs past the sender's key, leaving the
	// sender's epoch 0 and epoch 1 as tombstones.
	st := eps[1].Store
	var k1, k2 keys.SecretKey
	copy(k1[:], "epoch-one-secret")
	copy(k2[:], "epoch-two-secret")
	st.InstallPartitionEpoch(pkeyAB, 1, k1)
	st.RetirePartitionEpoch(pkeyAB, 0)
	st.InstallPartitionEpoch(pkeyAB, 2, k2)
	st.RetirePartitionEpoch(pkeyAB, 1)
	if n := len(st.RetiredPartitionKeys(pkeyAB)); n != 2 {
		t.Fatalf("%d retired tombstones, want 2", n)
	}
	forged := detach(captured)
	forged.Pkt.ICRC ^= 1

	const runs = 100
	for _, c := range []struct {
		name string
		d    *fabric.Delivery
		want EndpointCounter
	}{
		{"retired epoch", captured, EpAuthEpochExpired},
		{"forged", forged, EpAuthFail},
	} {
		before := eps[1].Counters.Value(c.want)
		if got := testing.AllocsPerRun(runs, func() { eps[1].Deliver(c.d) }); got != 0 {
			t.Errorf("%s: Deliver allocated %.1f times, want 0", c.name, got)
		}
		// AllocsPerRun makes one warm-up call before its runs.
		if n := eps[1].Counters.Value(c.want) - before; n != runs+1 {
			t.Errorf("%s: counted %d of %d deliveries", c.name, n, runs+1)
		}
	}
}

// BenchmarkSendUDAuth is one signed 1 KiB datagram end to end on the 2×1
// mesh: seal and tag at the sender, three hops, tag verification at the
// receiver. TestSignedSendUDAllocations holds it to no allocation.
func BenchmarkSendUDAuth(b *testing.B) {
	s, eps, send := authPair(b)
	send()
	s.Run()
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		s.Run()
	}
	b.StopTimer()
	if got := eps[1].Counters.Value(EpAuthOK); got != uint64(b.N)+1 {
		b.Fatalf("auth_ok = %d, want %d", got, b.N+1)
	}
}

// Arming the RC retry timer, and pushing its deadline out when the window
// progressed since, allocate nothing: the timer is a named handler over
// the endpoint whose operand is the QP.
func TestRetryTimerAllocations(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a, _ := connectRC(t, w, false)
	ep, st := w.eps[0], a.rc()
	st.unacked = append(st.unacked, &pendingSend{})
	arm := func() {
		ep.armRetry(a)
		w.s.Cancel(st.retryTimer)
	}
	rearm := func() {
		st.lastProgress = w.s.Now()
		ep.onRetryTimeout(a) // progress within the period: re-arms
		if !w.s.Cancel(st.retryTimer) {
			t.Fatal("onRetryTimeout did not re-arm the timer")
		}
	}
	if got := testing.AllocsPerRun(100, arm); got != 0 {
		t.Errorf("armRetry allocated %.1f times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, rearm); got != 0 {
		t.Errorf("re-arming from onRetryTimeout allocated %.1f times, want 0", got)
	}
}
