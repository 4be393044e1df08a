package transport

import (
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/topology"
)

// GSI input is attacker-reachable (any node can address QP 1), so the
// handlers must survive arbitrary payloads without panicking and without
// corrupting endpoint state.
func TestGSIMalformedInputs(t *testing.T) {
	w := newWorld(t, 0, QPLevel)
	rng := rand.New(rand.NewSource(7))

	send := func(payload []byte) {
		p := &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pkeyAB, DestQP: 1},
			DETH:    &packet.DETH{QKey: 0, SrcQP: 1},
			Payload: payload,
		}
		if err := icrc.Seal(p); err != nil {
			t.Fatal(err)
		}
		w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	}

	// Pure fuzz: random bytes of random lengths.
	for i := 0; i < 300; i++ {
		pl := make([]byte, rng.Intn(64))
		rng.Read(pl)
		send(pl)
	}
	// Structured abuse: valid headers with garbage bodies.
	for _, msgType := range []byte{1, 2, 3, 4, 99} {
		hdr := gsiHeader(msgType, packet.QPN(rng.Intn(1<<24)), packet.QPN(rng.Intn(1<<24)))
		send(hdr)
		send(append(hdr, 0xFF))                     // truncated extras
		send(append(hdr, 0, 200))                   // envelope length > body
		send(append(append(hdr, 0, 4), 1, 2, 3, 4)) // bogus 4-byte envelope
	}
	w.s.Run()

	if w.eps[3].Counters.Value(EpGSIReceived) == 0 {
		t.Fatal("no GSI messages processed")
	}
	// Malformed traffic must not fabricate state.
	if w.eps[3].Counters.Value(EpRCAccepted) != 0 || w.eps[3].Counters.Value(EpQKeyEstablished) != 0 {
		t.Fatal("malformed GSI traffic established state")
	}
	// The endpoint still works afterwards.
	src := w.eps[1].CreateUDQP(pkeyAB, 0)
	dst := w.eps[3].CreateUDQP(pkeyAB, 0x42)
	ok := false
	w.eps[1].RequestQKey(src, topology.LIDOf(3), dst.N, func(k packet.QKey, err error) {
		ok = err == nil && k == dst.QKey
	})
	w.s.Run()
	if !ok {
		t.Fatal("endpoint broken after fuzzing")
	}
}

// A QKey response for a request that was never made must be ignored.
func TestGSIUnsolicitedResponse(t *testing.T) {
	w := newWorld(t, 0, QPLevel)
	payload := gsiHeader(gsiQKeyResponse, 2, 2)
	payload = append(payload, 0, 0, 0, 0x42, 0, 0)
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(0)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pkeyAB, DestQP: 1},
		DETH:    &packet.DETH{QKey: 0, SrcQP: 1},
		Payload: payload,
	}
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
	if w.eps[0].Counters.Value(EpGSIUnexpected) != 1 {
		t.Fatalf("unsolicited response not flagged: %v", w.eps[0].Counters)
	}
}

// An RC connect aimed at a UD QP must be refused.
func TestGSIConnectWrongServiceRefused(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	udTarget := w.eps[3].CreateUDQP(pkeyAB, 0x11)
	a := w.eps[0].CreateRCQP(pkeyAB)
	done := false
	w.eps[0].ConnectRC(a, topology.LIDOf(3), udTarget.N, func(err error) { done = true })
	w.s.Run()
	if done {
		t.Fatal("connect to a UD QP completed")
	}
	if w.eps[3].Counters.Value(EpGSINoTarget) != 1 {
		t.Fatal("wrong-service connect not counted")
	}
}

// injectGSI sends payload to the QP 1 of node to from node from's HCA,
// as any node can, and runs the fabric until it settles.
func (w *world) injectGSI(t *testing.T, from, to int, payload []byte) {
	t.Helper()
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(from), DLID: topology.LIDOf(to)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pkeyAB, DestQP: 1},
		DETH:    &packet.DETH{QKey: 0, SrcQP: 1},
		Payload: payload,
	}
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	w.mesh.HCA(from).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	w.s.Run()
}

// TestGSIForgedEnvelopeCounted sends envelopes that do not open —
// bit-flipped, sealed to another node, and malformed — down both paths
// that carry one, a Q_Key response and an RC connect request. Each is
// refused and counted as gsi_issue_failed, and none establishes a key.
func TestGSIForgedEnvelopeCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	forged := func(w *world, to int) map[string][]byte {
		env, err := keys.Seal(rng, w.kps[to].Public(), keys.SecretKey{7})
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), env.Ciphertext...)
		flipped[keys.EnvelopeSize/2] ^= 0x40
		other, err := keys.Seal(rng, w.kps[2].Public(), keys.SecretKey{7})
		if err != nil {
			t.Fatal(err)
		}
		return map[string][]byte{
			"bit-flipped":      appendEnvelope(nil, keys.Envelope{Ciphertext: flipped}),
			"wrong recipient":  appendEnvelope(nil, other),
			"truncated":        appendEnvelope(nil, keys.Envelope{Ciphertext: env.Ciphertext[:keys.EnvelopeSize-1]}),
			"length past body": {0, 200, 1, 2, 3},
		}
	}

	t.Run("qkey response", func(t *testing.T) {
		w := newWorld(t, 0, QPLevel)
		for name, env := range forged(w, 0) {
			src := w.eps[0].CreateUDQP(pkeyAB, 0)
			var got error
			// Node 1 has no QP 0x77, so only the forged response answers.
			w.eps[0].RequestQKey(src, topology.LIDOf(1), 0x77, func(_ packet.QKey, err error) { got = err })
			w.s.Run()
			before := w.eps[0].Counters.Value(EpGSIIssueFailed)
			w.injectGSI(t, 1, 0, append(append(gsiHeader(gsiQKeyResponse, src.N, 0x77), 0, 0, 0, 0x42), env...))
			if got == nil {
				t.Errorf("%s: the Q_Key request completed without error", name)
			}
			if n := w.eps[0].Counters.Value(EpGSIIssueFailed) - before; n != 1 {
				t.Errorf("%s: gsi_issue_failed moved by %d, want 1", name, n)
			}
		}
		if n := w.eps[0].Counters.Value(EpQKeyEstablished); n != 0 {
			t.Fatalf("%d forged responses established a key", n)
		}
	})

	t.Run("rc connect", func(t *testing.T) {
		w := newWorld(t, 0, QPLevel)
		target := w.eps[3].CreateRCQP(pkeyAB)
		for name, env := range forged(w, 3) {
			before := w.eps[3].Counters.Value(EpGSIIssueFailed)
			w.injectGSI(t, 1, 3, append(gsiHeader(gsiRCConnectReq, 9, target.N), env...))
			if n := w.eps[3].Counters.Value(EpGSIIssueFailed) - before; n != 1 {
				t.Errorf("%s: gsi_issue_failed moved by %d, want 1", name, n)
			}
		}
		if n := w.eps[3].Counters.Value(EpRCAccepted); n != 0 {
			t.Fatalf("%d forged connects were accepted", n)
		}
	})
}
