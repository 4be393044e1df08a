package transport

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// GSI fuzz fixture: the endpoint under test is node 0 with a UD QP
// (gsiFuzzUD) and an RC QP (gsiFuzzRC), each with a request outstanding
// to node 1 — a Q_Key request for QP gsiFuzzPeerUD and an RC connect to
// QP gsiFuzzPeerRC — so well-formed responses reach every handler.
const (
	gsiFuzzUD     = packet.QPN(2)
	gsiFuzzRC     = packet.QPN(3)
	gsiFuzzPeerUD = packet.QPN(5)
	gsiFuzzPeerRC = packet.QPN(6)
)

// FuzzGSI feeds arbitrary QP 1 payloads from node 1 to handleGSI on a
// fresh QP-level-key endpoint. GSI input is attacker-reachable — any
// node can address QP 1 — so the dispatcher must not panic on any of
// it. The envelope codec must round-trip every envelope of
// keys.EnvelopeSize bytes, and parseEnvelope must refuse any other
// non-zero length, which no sealed envelope has.
func FuzzGSI(f *testing.F) {
	// One key pair stands in for every node's: the endpoint seals to its
	// peers' keys and opens what is sealed to its own.
	rng := rand.New(rand.NewSource(28))
	kp, err := keys.GenerateNodeKeyPair(rng)
	if err != nil {
		f.Fatal(err)
	}
	dir := keys.NewDirectory()
	names := topology.NewMesh(sim.New(), fabric.DefaultParams(), 2, 2)
	for i := 0; i < names.NumNodes(); i++ {
		dir.Register(names.HCA(i).Name(), kp.Public())
	}
	var secret keys.SecretKey
	copy(secret[:], "fuzz-gsi-secret!")
	env, err := keys.Seal(rng, kp.Public(), secret)
	if err != nil {
		f.Fatal(err)
	}
	withEnv := func(b []byte) []byte { return appendEnvelope(b, env) }
	qkey := []byte{0, 0, 0, 0x42}

	f.Add(gsiHeader(gsiQKeyRequest, 9, gsiFuzzUD))
	f.Add(withEnv(append(gsiHeader(gsiQKeyResponse, gsiFuzzUD, gsiFuzzPeerUD), qkey...)))
	f.Add(withEnv(gsiHeader(gsiRCConnectReq, 9, gsiFuzzRC)))
	f.Add(gsiHeader(gsiRCConnectAck, gsiFuzzRC, gsiFuzzPeerRC))
	f.Add(append(append(gsiHeader(gsiQKeyResponse, gsiFuzzUD, gsiFuzzPeerUD), qkey...), 0xFF, 0xFF, 1, 2, 3))
	f.Add(append(gsiHeader(gsiRCConnectReq, 9, gsiFuzzRC), 0x02, 0x01))
	f.Add([]byte{gsiQKeyResponse, 0})
	for _, n := range []int{keys.EnvelopeSize + 1, 512} {
		f.Add(appendEnvelope(nil, keys.Envelope{Ciphertext: make([]byte, n)}))
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		s := sim.New()
		mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
		hca := mesh.HCA(0)
		hca.PKeyTable.Add(pkeyAB)
		ep := NewEndpoint(hca, Config{
			Registry:  mac.DefaultRegistry(),
			KeyLevel:  QPLevel,
			RNG:       rand.New(rand.NewSource(1)),
			Directory: dir,
			KeyPair:   kp,
		})
		ud, rc := ep.CreateUDQP(pkeyAB, 0x11), ep.CreateRCQP(pkeyAB)
		if ud.N != gsiFuzzUD || rc.N != gsiFuzzRC {
			t.Fatalf("fixture QPs numbered %d and %d", ud.N, rc.N)
		}
		if err := ep.RequestQKey(ud, topology.LIDOf(1), gsiFuzzPeerUD, nil); err != nil {
			t.Fatal(err)
		}
		if err := ep.ConnectRC(rc, topology.LIDOf(1), gsiFuzzPeerRC, nil); err != nil {
			t.Fatal(err)
		}

		ep.handleGSI(&fabric.Delivery{Pkt: &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(0)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pkeyAB, DestQP: qpnGSI},
			DETH:    &packet.DETH{SrcQP: qpnGSI},
			Payload: payload,
		}})
		s.Run()

		if got, err := parseEnvelope(payload); err == nil {
			if n := int(binary.BigEndian.Uint16(payload)); n != 0 && n != keys.EnvelopeSize {
				t.Fatalf("parseEnvelope accepted a %d-byte envelope", n)
			}
			if n := len(got.Ciphertext); n > 0 && !bytes.Equal(got.Ciphertext, payload[2:2+n]) {
				t.Fatal("parseEnvelope returned bytes other than the envelope's")
			}
		}
		x := make([]byte, keys.EnvelopeSize)
		copy(x, payload)
		got, err := parseEnvelope(appendEnvelope(nil, keys.Envelope{Ciphertext: x}))
		if err != nil || !bytes.Equal(got.Ciphertext, x) {
			t.Fatalf("envelope of %d bytes did not round-trip: %v", len(x), err)
		}
	})
}
