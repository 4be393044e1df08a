package sm

import (
	"bytes"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// FuzzMADParse feeds arbitrary bytes to every parser a VL15 datagram can
// reach: the SMP and trap parsers, the HA heartbeat, state-sync and
// census parsers, the congestion and quarantine blobs a state sync
// carries as trailers, and — on the 16-byte data area an SMP response
// carries — the AuditState, AuditEntries and PortCounters attribute
// decoders. parseSMP's acceptance invariants are exactly the bounds the
// SMP agents rely on when they index the hop-path arrays, so any accepted
// frame that violates them is a crash an attacker could trigger with one
// crafted MAD. Every other parser must not panic, and what it accepts
// must re-encode to the bytes it read.
func FuzzMADParse(f *testing.F) {
	req := newSMP(smpMethodGet, smpAttrNodeInfo, 7, keys.MKey(0x5EC0DE), []byte{1, 2, 3})
	f.Add(req[:])
	resp := newSMP(smpMethodSet, smpAttrSetRoute, 9, keys.MKey(0xBAD), []byte{0, 1})
	resp[smpOffDir] = 1
	resp[smpOffHopPtr] = 2
	f.Add(resp[:])
	oversized := newSMP(smpMethodGet, smpAttrNodeInfo, 1, 0, nil)
	oversized[smpOffHopCnt] = 200 // would index far past the path arrays
	f.Add(oversized[:])
	short := newSMP(smpMethodGet, smpAttrNodeInfo, 1, 0, nil)
	f.Add(short[:smpHeaderSize]) // truncated data area
	f.Add(encodeTrap(trapMAD{Offender: 5, PKey: 0x8003}))
	f.Add([]byte{madTypeDRSMP})
	f.Add(appendHeartbeat(nil, heartbeatMAD{Master: 3, Seq: 41, Digest: 0xDEADBEEF}))
	f.Add(encodeCensus(haTypeCensusPing, censusMAD{Node: 7, ID: 12}))
	f.Add(encodeCensus(haTypeCensusPong, censusMAD{Node: 9, ID: 12}))
	cc := EncodeCCBlob(testCCParams())
	health := EncodeHealthBlob([]HealthEntry{{Link: topology.LinkID{Switch: 5, Port: 2}, Flaps: 3, HoldUntil: 40 * sim.Microsecond}})
	f.Add(cc)
	f.Add(health)
	f.Add(cc[:len(cc)-1])
	f.Add(append(health[:len(health):len(health)], 0))
	sync := stateSyncMAD{
		Master:     3,
		DirDigest:  0xDEADBEEF,
		Partitions: []syncPartition{{Base: 0x8001, Epoch: 7, Members: []byte{0, 1, 0, 4, 0, 9}}},
	}
	bare := appendStateSync(nil, &sync)
	sync.Blobs = [][]byte{[]byte("IBPLfake-policy-document"), cc, health}
	whole := appendStateSync(nil, &sync)
	f.Add(bare)
	f.Add(whole)
	// The malformed trailers TestStateSyncCarriesCCBlob lists.
	f.Add(whole[:len(whole)-len(health)-2])                  // truncated length prefix
	f.Add(whole[:len(whole)-1])                              // length past the payload
	f.Add(append(whole[:len(whole):len(whole)], 0, 0, 0, 0)) // zero-length trailer
	f.Add(bare[:12])                                         // truncated partition record
	var audit [smpDataSize]byte
	encodeAuditState(audit[:], AuditState{ValidDigest: 0xDEADBEEF, InvalidDigest: 7, AltDigest: 9, Active: true, Mode: enforce.SIF})
	f.Add(audit[:])
	chunk := [smpDataSize]byte{0, 40, 200, 0x80, 0x01} // 40 entries, a count past the chunk
	f.Add(chunk[:])

	f.Fuzz(func(t *testing.T, pl []byte) {
		if fr, err := parseSMP(pl); err == nil {
			if len(pl) < smpTotalSize {
				t.Fatalf("accepted %d-byte SMP, need %d", len(pl), smpTotalSize)
			}
			if fr.HopCnt > smpMaxHops || fr.HopPtr > fr.HopCnt || fr.HopPtr < 0 {
				t.Fatalf("accepted out-of-range hops: cnt=%d ptr=%d", fr.HopCnt, fr.HopPtr)
			}
			// The exact indices the agents touch must be inside the frame.
			if fr.HopPtr < fr.HopCnt && smpOffInit+fr.HopPtr >= smpOffRet {
				t.Fatalf("initial-path read at %d crosses into return path", smpOffInit+fr.HopPtr)
			}
			if smpOffRet+fr.HopCnt >= len(pl) {
				t.Fatalf("return-path write at %d outside %d-byte frame", smpOffRet+fr.HopCnt, len(pl))
			}
			// Extracted fields must mirror the raw bytes.
			if fr.Method != pl[smpOffMethod] || fr.Attr != pl[smpOffAttr] || fr.Dir != pl[smpOffDir] {
				t.Fatal("frame fields disagree with payload bytes")
			}
		}
		if tr, err := parseTrap(pl); err == nil {
			if !bytes.Equal(encodeTrap(tr), pl[:trapPayloadSize]) {
				t.Fatal("trap does not round-trip")
			}
		}
		if hb, err := parseHeartbeat(pl); err == nil {
			if !bytes.Equal(appendHeartbeat(nil, hb), pl[:heartbeatPayloadSize]) {
				t.Fatal("heartbeat does not round-trip")
			}
		}
		if cm, err := parseCensus(pl); err == nil {
			if !bytes.Equal(encodeCensus(pl[0], cm), pl[:censusPayloadSize]) {
				t.Fatal("census MAD does not round-trip")
			}
		}
		// A state sync is read to its last byte: trailers run to the end.
		var ss stateSyncMAD
		if err := parseStateSync(pl, &ss); err == nil {
			if !bytes.Equal(appendStateSync(nil, &ss), pl) {
				t.Fatal("state sync does not round-trip")
			}
		}
		if cc, err := ParseCCBlob(pl); err == nil {
			if !bytes.Equal(EncodeCCBlob(cc), pl) {
				t.Fatal("congestion blob does not round-trip")
			}
		}
		// A response's attribute data area is always smpDataSize bytes.
		var data [smpDataSize]byte
		copy(data[:], pl)
		want := data
		want[12] = min(want[12], 1) // any non-zero active byte reads as true
		var re [smpDataSize]byte
		encodeAuditState(re[:], ParseAuditState(data[:]))
		if !bytes.Equal(re[:14], want[:14]) {
			t.Fatalf("AuditState re-encodes to %x from %x", re[:14], data[:14])
		}
		if ch := ParseAuditChunk(data[:]); len(ch.Entries) > AuditEntriesPerChunk {
			t.Fatalf("chunk of %d entries, at most %d fit", len(ch.Entries), AuditEntriesPerChunk)
		}
		encodePortCounters(re[:], ParsePortCounters(data[:]))
		if !bytes.Equal(re[:portCountersSize], data[:portCountersSize]) {
			t.Fatal("PortCounters does not round-trip")
		}
		// The quarantine encoder sorts by (switch, port) and the parser
		// takes entries in any order, so only a strictly ascending blob
		// reads back byte for byte.
		if entries, err := ParseHealthBlob(pl); err == nil {
			re := EncodeHealthBlob(entries)
			if len(re) != len(pl) {
				t.Fatalf("quarantine blob re-encodes to %d bytes from %d", len(re), len(pl))
			}
			ascending := true
			for i := 1; i < len(entries); i++ {
				a, b := entries[i-1].Link, entries[i].Link
				if a.Switch > b.Switch || a.Switch == b.Switch && a.Port >= b.Port {
					ascending = false
				}
			}
			if ascending && !bytes.Equal(re, pl) {
				t.Fatal("ascending quarantine blob does not round-trip")
			}
		}
	})
}

// Malformed SMPs injected into the fabric must be counted and dropped by
// the switch agent — not crash it. Before parseSMP the hop fields were
// used as raw array indices, so a hop count of 200 was a panic.
func TestMalformedSMPDropped(t *testing.T) {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 2, 2)
	AttachSwitchAgents(mesh, discMKey)

	inject := func(mutate func([]byte) []byte) {
		pl := newSMP(smpMethodGet, smpAttrNodeInfo, 1, discMKey, []byte{1})
		mesh.HCA(0).Send(mesh.HCA(0).Params().NewMAD(0, packet.LIDPermissive, mutate(pl[:])))
	}
	inject(func(pl []byte) []byte { pl[smpOffHopCnt] = 200; return pl })
	inject(func(pl []byte) []byte { pl[smpOffHopPtr] = 17; pl[smpOffHopCnt] = 16; return pl })
	inject(func(pl []byte) []byte { return pl[:smpHeaderSize+2] }) // truncated data area
	s.Run()

	sw := mesh.SwitchOf(0)
	if got := sw.Counters.Value(fabric.SwSMPMalformed); got != 3 {
		t.Fatalf("smp_malformed = %d, want 3", got)
	}
}

// parseSMP accepts a payload longer than an SMP; both agents answer it
// with a response of exactly smpTotalSize — a responder never echoes a
// requester-chosen length.
func TestOversizedSMPAnsweredAtFixedSize(t *testing.T) {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 2, 2)
	AttachSwitchAgents(mesh, discMKey)
	AttachNodeAgent(mesh.HCA(1), discMKey)
	var got []int
	mesh.HCA(0).OnDeliver = func(d *fabric.Delivery) {
		if fr, err := parseSMP(d.Pkt.Payload); err != nil || fr.Dir == 0 || fr.Status != smpStatusOK {
			t.Errorf("response %x: %+v, %v", d.Pkt.Payload, fr, err)
		}
		got = append(got, len(d.Pkt.Payload))
	}
	for _, path := range [][]byte{nil, {topology.PortEast, topology.PortHCA}} { // own switch; HCA 1
		pl := newSMP(smpMethodGet, smpAttrNodeInfo, 1, discMKey, path)
		mesh.HCA(0).Send(mesh.HCA(0).Params().NewMAD(0, packet.LIDPermissive, append(pl[:], make([]byte, 100)...)))
	}
	s.Run()
	if len(got) != 2 || got[0] != smpTotalSize || got[1] != smpTotalSize {
		t.Fatalf("response sizes %v, want two of %d", got, smpTotalSize)
	}
}

// A malformed SMP that survives transit to a channel adapter is dropped
// there by the same parser.
func TestMalformedSMPDroppedByNodeAgent(t *testing.T) {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 2, 2)
	agent := AttachNodeAgent(mesh.HCA(0), discMKey)

	pl := newSMP(smpMethodGet, smpAttrNodeInfo, 1, discMKey, nil)
	d := mesh.HCA(0).Params().NewMAD(0, packet.LIDPermissive, pl[:smpHeaderSize+1])
	agent.receive(d)
	if got := mesh.HCA(0).Counters.Value(fabric.HCASMPMalformed); got != 1 {
		t.Fatalf("smp_malformed = %d, want 1", got)
	}
}

// encodeTrap renders a trap payload; parseTrap(encodeTrap(t)) == t.
func encodeTrap(t trapMAD) []byte {
	pl := make([]byte, trapPayloadSize)
	putTrap(pl, t)
	return pl
}

// encodeCensus renders a census payload; parseCensus(encodeCensus(typ, cm))
// == cm.
func encodeCensus(typ byte, cm censusMAD) []byte {
	pl := make([]byte, censusPayloadSize)
	putCensus(pl, typ, cm)
	return pl
}
