package packet

import (
	"bytes"
	"testing"
)

// mustWire finalizes and marshals a seed packet for the fuzz corpus.
func mustWire(f *testing.F, p *Packet) []byte {
	f.Helper()
	if err := p.Finalize(); err != nil {
		f.Fatal(err)
	}
	return p.Marshal()
}

// FuzzPacketUnmarshal drives the wire parser with arbitrary buffers.
// Accepted inputs must satisfy the parser's own contract: the parsed
// structure accounts for every byte, re-marshalling is stable after one
// normalization pass (pad bytes and reserved bits zeroed), and the
// cached-wire, deep-copy and built-in-place views agree with Marshal.
func FuzzPacketUnmarshal(f *testing.F) {
	f.Add(mustWire(f, &Packet{
		LRH:     LRH{SLID: 1, DLID: 2, VL: 1},
		BTH:     BTH{OpCode: UDSendOnly, PKey: 0x8001, DestQP: 7, PSN: 42},
		DETH:    &DETH{QKey: 0x1234, SrcQP: 3},
		Payload: []byte("datagram payload"),
		ICRC:    0xDEADBEEF,
		VCRC:    0x5A5A,
	}))
	f.Add(mustWire(f, &Packet{
		LRH:     LRH{SLID: 9, DLID: 4},
		GRH:     &GRH{HopLmt: 64},
		BTH:     BTH{OpCode: RCSendOnly, PKey: 0xFFFF, DestQP: 1, PSN: 1},
		Payload: bytes.Repeat([]byte{0xA5}, 33), // exercises padding
	}))
	f.Add(mustWire(f, &Packet{
		LRH:  LRH{SLID: 2, DLID: 1},
		BTH:  BTH{OpCode: RCAck, DestQP: 1, PSN: 5},
		AETH: &AETH{Syndrome: 0, MSN: 5},
	}))
	f.Add(mustWire(f, &Packet{
		LRH:     LRH{SLID: 3, DLID: 6},
		BTH:     BTH{OpCode: RCRDMAWriteOnly, DestQP: 2},
		RETH:    &RETH{VA: 0x1000, RKey: 77, DMALen: 256},
		Payload: bytes.Repeat([]byte{1}, 256),
	}))
	f.Add(mustWire(f, &Packet{
		LRH:     LRH{SLID: 5, DLID: 8},
		BTH:     BTH{OpCode: UDSendOnlyImm, PKey: 0x8002, DestQP: 9},
		DETH:    &DETH{QKey: 1, SrcQP: 4},
		Imm:     0xCAFEF00D,
		Payload: []byte{1, 2, 3},
	}))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})

	f.Fuzz(func(t *testing.T, b []byte) {
		var p Packet
		if err := p.Unmarshal(b); err != nil {
			return // rejected input: only absence of panics is asserted
		}
		if p.WireSize() != len(b) {
			t.Fatalf("parsed WireSize %d != buffer %d", p.WireSize(), len(b))
		}
		m := p.Marshal()
		if len(m) != len(b) {
			t.Fatalf("re-marshal length %d != input %d", len(m), len(b))
		}
		var q Packet
		if err := q.Unmarshal(m); err != nil {
			t.Fatalf("re-marshal of accepted packet rejected: %v", err)
		}
		if !bytes.Equal(q.Marshal(), m) {
			t.Fatal("marshal unstable after one normalization pass")
		}
		if !bytes.Equal(p.Wire(), m) {
			t.Fatal("Wire() cache disagrees with Marshal()")
		}
		if !bytes.Equal(p.Clone().Marshal(), m) {
			t.Fatal("Clone() not wire-equivalent to original")
		}
		// The same packet built the way the send paths build it: payload
		// written into the image, headers and trailers marshalled around
		// it. A non-canonical PadCnt sizes the image differently, and
		// Wire must then fall back rather than trust the window.
		r := p.Clone()
		copy(r.AllocPayload(len(p.Payload)), p.Payload)
		canonical := r.BTH.PadCnt == p.BTH.PadCnt
		r.BTH.PadCnt = p.BTH.PadCnt
		w := r.Wire()
		if !bytes.Equal(w, m) {
			t.Fatal("in-place Wire() disagrees with Marshal()")
		}
		if n := len(r.Payload); n > 0 && canonical && &w[r.HeaderSize()] != &r.Payload[0] {
			t.Fatal("canonical packet was not marshalled in place")
		}
	})
}
