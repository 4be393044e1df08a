package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

const pkeyAB = packet.PKey(0x8001)

// world is a 2x2 mesh with endpoints on every node.
type world struct {
	s    *sim.Simulator
	mesh *topology.Mesh
	eps  []*Endpoint
	dir  *keys.Directory
	kps  []*keys.NodeKeyPair
}

func newWorld(t *testing.T, authID uint8, level KeyLevel) *world {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	s := sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	dir := keys.NewDirectory()
	w := &world{s: s, mesh: mesh, dir: dir}
	reg := mac.DefaultRegistry()
	for i := 0; i < mesh.NumNodes(); i++ {
		kp, err := keys.GenerateNodeKeyPair(rng)
		if err != nil {
			t.Fatal(err)
		}
		w.kps = append(w.kps, kp)
		dir.Register(mesh.HCA(i).Name(), kp.Public())
	}
	for i := 0; i < mesh.NumNodes(); i++ {
		hca := mesh.HCA(i)
		hca.PKeyTable.Add(pkeyAB)
		ep := NewEndpoint(hca, Config{
			Registry:  reg,
			AuthID:    authID,
			KeyLevel:  level,
			RNG:       rng,
			Directory: dir,
			KeyPair:   w.kps[i],
		})
		w.eps = append(w.eps, ep)
	}
	return w
}

// installPartitionSecret shares one partition secret across all nodes.
func (w *world) installPartitionSecret() keys.SecretKey {
	var k keys.SecretKey
	copy(k[:], "partition-secret")
	for _, ep := range w.eps {
		ep.Store.InstallPartitionSecret(pkeyAB, k)
	}
	return k
}

func TestUDPlainDelivery(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x1234)

	var got []byte
	var gotSrc packet.LID
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { got = append([]byte(nil), p...); gotSrc = s }

	err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, dst.QKey, []byte("hello iba"), fabric.ClassBestEffort)
	if err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("hello iba")) {
		t.Fatalf("payload = %q", got)
	}
	if gotSrc != topology.LIDOf(0) {
		t.Fatalf("src = %d", gotSrc)
	}
	if w.eps[3].Counters.Value(EpDelivered) != 1 {
		t.Fatal("delivered counter")
	}
}

// Table 3, Q_Key row: a packet with the wrong Q_Key must be rejected.
func TestQKeyViolation(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[1].CreateUDQP(pkeyAB, 0x1234)
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	w.eps[0].SendUD(src, topology.LIDOf(1), dst.N, packet.QKey(0xBAD), []byte("x"), fabric.ClassBestEffort)
	w.s.Run()
	if n != 0 {
		t.Fatal("wrong Q_Key delivered")
	}
	if w.eps[1].Counters.Value(EpQKeyViolations) != 1 {
		t.Fatal("violation not counted")
	}
}

func TestUnknownQPDropped(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	w.eps[0].SendUD(src, topology.LIDOf(1), 77, 0, []byte("x"), fabric.ClassBestEffort)
	w.s.Run()
	if w.eps[1].Counters.Value(EpDropNoQP) != 1 {
		t.Fatal("no_qp drop not counted")
	}
}

func TestPartitionLevelAuth(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	w.installPartitionSecret()
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	src.AuthRequired = true
	dst.AuthRequired = true

	var got []byte
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { got = append([]byte(nil), p...) }
	if err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, dst.QKey, []byte("signed"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("signed")) {
		t.Fatalf("payload = %q", got)
	}
	if w.eps[0].Counters.Value(EpPacketsSigned) != 1 {
		t.Fatal("not signed")
	}
	if w.eps[3].Counters.Value(EpAuthOK) != 1 {
		t.Fatal("not verified")
	}
}

// On-demand policy: an auth-required QP rejects unsigned packets even
// with a valid Q_Key — this closes the paper's Q_Key exposure threat.
func TestAuthRequiredRejectsUnsigned(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	w.installPartitionSecret()
	// The attacker's endpoint does not sign (AuthID 0 / no requirement).
	attacker := w.eps[1].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	dst.AuthRequired = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	// Attacker knows the Q_Key (plaintext exposure) but not the secret.
	w.eps[1].SendUD(attacker, topology.LIDOf(3), dst.N, dst.QKey, []byte("forged"), fabric.ClassBestEffort)
	w.s.Run()
	if n != 0 {
		t.Fatal("unsigned packet accepted by auth-required QP")
	}
	if w.eps[3].Counters.Value(EpAuthMissing) != 1 {
		t.Fatal("auth_missing not counted")
	}
}

// A forged tag (attacker without the secret key) must fail verification.
func TestForgedTagRejected(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	w.installPartitionSecret()
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	dst.AuthRequired = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	// Hand-craft a packet claiming UMAC-32 with a guessed tag.
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(3)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pkeyAB, AuthID: mac.IDUMAC32, DestQP: dst.N, PSN: 9},
		DETH:    &packet.DETH{QKey: dst.QKey, SrcQP: 5},
		Payload: []byte("forged payload"),
		ICRC:    0xDEADBEEF, // guessed tag
	}
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if n != 0 {
		t.Fatal("forged tag accepted")
	}
	if w.eps[3].Counters.Value(EpAuthFail) != 1 {
		t.Fatal("auth_fail not counted")
	}
}

// In-flight payload tampering must invalidate the tag.
func TestTamperedPayloadRejected(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	k := w.installPartitionSecret()
	_ = k
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	dst.AuthRequired = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	src.AuthRequired = true
	if err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, dst.QKey, []byte("genuine"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	// Tamper mid-flight: intercept at delivery by wrapping the HCA's
	// callback installed by the endpoint.
	inner := w.mesh.HCA(3).OnDeliver
	w.mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		if len(d.Pkt.Payload) > 0 {
			d.Pkt.Payload[0] ^= 0xFF
			d.Pkt.InvalidateWire() // mutation contract: drop the cached image
		}
		inner(d)
	}
	w.s.Run()
	if n != 0 {
		t.Fatal("tampered payload accepted")
	}
	if w.eps[3].Counters.Value(EpAuthFail) != 1 {
		t.Fatal("auth_fail not counted")
	}
}

// Rotation boundary: a packet signed under the grace-window epoch is
// accepted (auth_ok_grace) while the window is open, but one arriving
// exactly at the retire instant finds the window already closed — the
// boundary is exclusive — and is refused under auth_epoch_expired, not
// auth_fail, so sweeps can tell stale-key traffic from forgeries.
func TestGraceEpochRetireBoundary(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	var k0, k1 keys.SecretKey
	copy(k0[:], "epoch-zero-secret")
	copy(k1[:], "epoch-one-secret")

	// The sender still signs under epoch 0; the receiver has rolled to
	// epoch 1 and holds epoch 0 in the grace window.
	w.eps[0].Store.InstallPartitionSecret(pkeyAB, k0)
	w.eps[3].Store.InstallPartitionSecret(pkeyAB, k0)
	w.eps[3].Store.InstallPartitionEpoch(pkeyAB, 1, k1)

	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	src.AuthRequired = true
	dst.AuthRequired = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	if err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, dst.QKey, []byte("in grace"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if n != 1 || w.eps[3].Counters.Value(EpAuthOKGrace) != 1 {
		t.Fatalf("grace-window packet: delivered=%d auth_ok_grace=%d",
			n, w.eps[3].Counters.Value(EpAuthOKGrace))
	}

	// Close the grace window in the same timestep the next packet
	// arrives, before verification runs — "arriving exactly at retire
	// time" must land outside the window.
	inner := w.mesh.HCA(3).OnDeliver
	w.mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		w.eps[3].Store.RetirePartitionEpoch(pkeyAB, 0)
		inner(d)
	}
	if err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, dst.QKey, []byte("too late"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if n != 1 {
		t.Fatal("stale-epoch packet accepted at retire time")
	}
	if got := w.eps[3].Counters.Value(EpAuthEpochExpired); got != 1 {
		t.Fatalf("auth_epoch_expired = %d, want 1", got)
	}
	if got := w.eps[3].Counters.Value(EpAuthFail); got != 0 {
		t.Fatalf("tombstoned-epoch reject miscounted as auth_fail (%d)", got)
	}
}

func TestSendWithoutKeyFails(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	// No partition secret installed.
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	src.AuthRequired = true
	err := w.eps[0].SendUD(src, topology.LIDOf(1), 5, 0, []byte("x"), fabric.ClassBestEffort)
	if err == nil {
		t.Fatal("send without a key succeeded")
	}
}

// QP-level flow: Q_Key request establishes the per-pair secret in one
// round trip, then authenticated traffic flows.
func TestQPLevelKeyExchangeAndAuth(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x77)
	src.AuthRequired = true
	dst.AuthRequired = true

	var got []byte
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { got = append([]byte(nil), p...) }

	var qkey packet.QKey
	done := false
	err := w.eps[0].RequestQKey(src, topology.LIDOf(3), dst.N, func(k packet.QKey, err error) {
		if err != nil {
			t.Errorf("RequestQKey: %v", err)
			return
		}
		qkey = k
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !done {
		t.Fatal("Q_Key exchange did not complete")
	}
	if qkey != dst.QKey {
		t.Fatalf("qkey = %#x, want %#x", qkey, dst.QKey)
	}
	// Both sides must now hold the pair secret.
	if _, ok := w.eps[0].Store.SendQPSecret(src.N, topology.LIDOf(3), dst.N); !ok {
		t.Fatal("requester missing send secret")
	}
	if _, ok := w.eps[3].Store.RecvQPSecret(dst.QKey, topology.LIDOf(0), src.N); !ok {
		t.Fatal("issuer missing recv secret")
	}

	if err := w.eps[0].SendUD(src, topology.LIDOf(3), dst.N, qkey, []byte("per-qp"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("per-qp")) {
		t.Fatalf("payload = %q", got)
	}
	if w.eps[3].Counters.Value(EpAuthOK) != 1 {
		t.Fatal("QP-level verification missing")
	}
}

// The key exchange costs one fabric round trip — the overhead Figure 6
// charges to QP-level key management.
func TestKeyExchangeCostsOneRTT(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x77)
	var doneAt sim.Time
	w.eps[0].RequestQKey(src, topology.LIDOf(3), dst.N, func(k packet.QKey, err error) {
		doneAt = w.s.Now()
	})
	w.s.Run()
	if doneAt == 0 {
		t.Fatal("exchange incomplete")
	}
	// Round trip across 3 switch hops each way with small packets: at
	// least a few microseconds, far less than a millisecond.
	us := doneAt.Microseconds()
	if us < 1 || us > 1000 {
		t.Fatalf("key exchange RTT %vus implausible", us)
	}
}

func TestRCConnectAndSend(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	a := w.eps[0].CreateRCQP(pkeyAB)
	b := w.eps[2].CreateRCQP(pkeyAB)
	a.AuthRequired = true
	b.AuthRequired = true
	var got []byte
	b.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { got = append([]byte(nil), p...) }

	connected := false
	if err := w.eps[0].ConnectRC(a, topology.LIDOf(2), b.N, func(err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		connected = true
	}); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !connected {
		t.Fatal("RC connect did not complete")
	}
	if a.RemoteQPN != b.N || b.RemoteQPN != a.N {
		t.Fatal("QPs not cross-linked")
	}

	if err := w.eps[0].SendRC(a, []byte("rc data"), fabric.ClassRealtime); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(got, []byte("rc data")) {
		t.Fatalf("payload = %q", got)
	}
	if w.eps[2].Counters.Value(EpAuthOK) != 1 {
		t.Fatal("RC auth verification missing")
	}
}

func TestRCSendBeforeConnectFails(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a := w.eps[0].CreateRCQP(pkeyAB)
	if err := w.eps[0].SendRC(a, []byte("x"), fabric.ClassBestEffort); err == nil {
		t.Fatal("send on unconnected RC QP succeeded")
	}
}

// Table 3, R_Key row: RDMA writes land without destination QP
// intervention when the R_Key is valid, and are rejected otherwise.
func TestRDMAWriteAndRKeyCheck(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	a := w.eps[0].CreateRCQP(pkeyAB)
	b := w.eps[1].CreateRCQP(pkeyAB)
	region := w.eps[1].RegisterMemory(256)

	ok := false
	w.eps[0].ConnectRC(a, topology.LIDOf(1), b.N, func(err error) { ok = err == nil })
	w.s.Run()
	if !ok {
		t.Fatal("connect failed")
	}

	if err := w.eps[0].RDMAWrite(a, region.VA+16, region.RKey, []byte("dma!"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if !bytes.Equal(region.Data[16:20], []byte("dma!")) {
		t.Fatalf("region = %q", region.Data[16:20])
	}
	if w.eps[1].Counters.Value(EpRDMAWrites) != 1 {
		t.Fatal("rdma_writes counter")
	}

	// Wrong R_Key.
	if err := w.eps[0].RDMAWrite(a, region.VA, packet.RKey(0x9999), []byte("evil"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if w.eps[1].Counters.Value(EpRKeyViolations) != 1 {
		t.Fatal("rkey violation not counted")
	}

	// Out-of-bounds VA.
	if err := w.eps[0].RDMAWrite(a, region.VA+250, region.RKey, []byte("overflow"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if w.eps[1].Counters.Value(EpRDMABoundsViolations) != 1 {
		t.Fatal("bounds violation not counted")
	}
}

// Replay protection (paper section 7): a byte-identical resend with the
// same PSN must be dropped when the nonce extension is on.
func TestReplayProtection(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	w.installPartitionSecret()
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[1].CreateUDQP(pkeyAB, 0x42)
	src.AuthRequired = true
	dst.AuthRequired = true
	dst.ReplayProtect = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	// Capture the genuine wire packet at the victim, then replay it.
	var captured *packet.Packet
	inner := w.mesh.HCA(1).OnDeliver
	w.mesh.HCA(1).OnDeliver = func(d *fabric.Delivery) {
		if captured == nil && d.Pkt.BTH.DestQP == dst.N {
			captured = d.Pkt.Clone()
		}
		inner(d)
	}
	w.eps[0].SendUD(src, topology.LIDOf(1), dst.N, dst.QKey, []byte("original"), fabric.ClassBestEffort)
	w.s.Run()
	if n != 1 || captured == nil {
		t.Fatalf("setup failed: n=%d", n)
	}

	// Attacker replays the captured packet verbatim.
	w.mesh.HCA(0).Send(&fabric.Delivery{Pkt: captured, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if n != 1 {
		t.Fatal("replayed packet delivered")
	}
	if w.eps[1].Counters.Value(EpReplayDrops) != 1 {
		t.Fatal("replay not counted")
	}
}

// Without replay protection the same replay succeeds — the vulnerability
// the paper acknowledges in section 7.
func TestReplayWithoutProtectionSucceeds(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, PartitionLevel)
	w.installPartitionSecret()
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	dst := w.eps[1].CreateUDQP(pkeyAB, 0x42)
	src.AuthRequired = true
	dst.AuthRequired = true
	n := 0
	dst.OnRecv = func(p []byte, s packet.LID, q packet.QPN) { n++ }

	var captured *packet.Packet
	inner := w.mesh.HCA(1).OnDeliver
	w.mesh.HCA(1).OnDeliver = func(d *fabric.Delivery) {
		if captured == nil && d.Pkt.BTH.DestQP == dst.N {
			captured = d.Pkt.Clone()
		}
		inner(d)
	}
	w.eps[0].SendUD(src, topology.LIDOf(1), dst.N, dst.QKey, []byte("original"), fabric.ClassBestEffort)
	w.s.Run()
	w.mesh.HCA(0).Send(&fabric.Delivery{Pkt: captured, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if n != 2 {
		t.Fatalf("n = %d: replay should succeed without nonce tracking", n)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	src := w.eps[0].CreateUDQP(pkeyAB, 0)
	big := make([]byte, packet.MTU+1)
	if err := w.eps[0].SendUD(src, topology.LIDOf(1), 5, 0, big, fabric.ClassBestEffort); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestQPNumbersStartAboveReserved(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	q := w.eps[0].CreateUDQP(pkeyAB, 0)
	if q.N < 2 {
		t.Fatalf("QP number %d collides with SMI/GSI", q.N)
	}
	q2, ok := w.eps[0].QPByNumber(q.N)
	if !ok || q2 != q {
		t.Fatal("QPByNumber lookup failed")
	}
}
