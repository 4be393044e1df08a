package icrc

import (
	"testing"

	"ibasec/internal/packet"
)

// headerShapes are the extended-header combinations a sealed packet can
// carry; each puts the payload at a different offset against the VCRC
// fold's 16-byte blocks and the ICRC's header/payload split.
var headerShapes = []struct {
	name string
	mk   func() *packet.Packet
}{
	{"local UD (DETH)", func() *packet.Packet {
		return &packet.Packet{
			BTH:  packet.BTH{OpCode: packet.UDSendOnly},
			DETH: &packet.DETH{QKey: 0x1234, SrcQP: 6},
		}
	}},
	{"global UD (GRH, DETH)", func() *packet.Packet {
		return &packet.Packet{
			GRH:  &packet.GRH{TClass: 1, FlowLabel: 2, HopLmt: 64},
			BTH:  packet.BTH{OpCode: packet.UDSendOnly},
			DETH: &packet.DETH{QKey: 0x1234, SrcQP: 6},
		}
	}},
	{"UD immediate (DETH, Imm)", func() *packet.Packet {
		return &packet.Packet{
			BTH:  packet.BTH{OpCode: packet.UDSendOnlyImm},
			DETH: &packet.DETH{QKey: 1, SrcQP: 4},
			Imm:  0xCAFEF00D,
		}
	}},
	{"RDMA write (RETH)", func() *packet.Packet {
		return &packet.Packet{
			BTH:  packet.BTH{OpCode: packet.RCRDMAWriteOnly},
			RETH: &packet.RETH{VA: 0x1000, RKey: 77, DMALen: 256},
		}
	}},
	{"RDMA read response (AETH)", func() *packet.Packet {
		return &packet.Packet{
			BTH:  packet.BTH{OpCode: packet.RCRDMAReadRespO},
			AETH: &packet.AETH{Syndrome: 0, MSN: 5},
		}
	}},
	{"RC send (no extended header)", func() *packet.Packet {
		return &packet.Packet{BTH: packet.BTH{OpCode: packet.RCSendOnly}}
	}},
}

// checkSealed holds a sealed packet to the two-pass definition: the ICRC
// is CRC32 over a masked copy of the invariant region, the
// VCRC CRC16 over everything before it, and both are what the wire
// carries.
func checkSealed(t *testing.T, p *packet.Packet) {
	t.Helper()
	wire := p.Wire()
	region, err := InvariantRegion(wire)
	if err != nil {
		t.Fatal(err)
	}
	n := len(wire)
	if want := CRC32(region); p.ICRC != want {
		t.Fatalf("ICRC = %#08x, two-pass answer %#08x", p.ICRC, want)
	}
	if want := CRC16(wire[:n-packet.VCRCSize]); p.VCRC != want {
		t.Fatalf("VCRC = %#04x, two-pass answer %#04x", p.VCRC, want)
	}
	ic := uint32(wire[n-6])<<24 | uint32(wire[n-5])<<16 | uint32(wire[n-4])<<8 | uint32(wire[n-3])
	vc := uint16(wire[n-2])<<8 | uint16(wire[n-1])
	if ic != p.ICRC || vc != p.VCRC {
		t.Fatalf("trailer on the wire %#08x/%#04x, packet says %#08x/%#04x", ic, vc, p.ICRC, p.VCRC)
	}
	if ok, err := VerifyICRC(wire); err != nil || !ok {
		t.Fatalf("VerifyICRC = %v, %v", ok, err)
	}
	if ok, err := VerifyVCRC(wire); err != nil || !ok {
		t.Fatalf("VerifyVCRC = %v, %v", ok, err)
	}
}

// Seal equals the two independent CRCs for every payload
// length up to the MTU under every header shape, whether the packet owns
// its image (built in place) or carries a caller's payload slice.
func TestSealOnePassMatchesTwoPass(t *testing.T) {
	for _, shape := range headerShapes {
		for n := 0; n <= packet.MTU; n++ {
			inPlace, literal := shape.mk(), shape.mk()
			for _, p := range []*packet.Packet{inPlace, literal} {
				p.LRH = packet.LRH{VL: 3, SL: 1, DLID: 9, SLID: 4}
				p.BTH.PKey, p.BTH.DestQP, p.BTH.PSN = 0x8005, 11, uint32(n)
			}
			w := inPlace.AllocPayload(n)
			for i := range w {
				w[i] = byte(i*7 + n)
			}
			literal.Payload = append([]byte(nil), w...)
			for _, p := range []*packet.Packet{inPlace, literal} {
				if err := Seal(p); err != nil {
					t.Fatalf("%s, %d B: %v", shape.name, n, err)
				}
				checkSealed(t, p)
			}
			if inPlace.ICRC != literal.ICRC || inPlace.VCRC != literal.VCRC {
				t.Fatalf("%s, %d B: in-place and copied images seal differently", shape.name, n)
			}
			if n > 0 && &inPlace.Wire()[inPlace.HeaderSize()] != &w[0] {
				t.Fatalf("%s, %d B: Seal copied a payload that was built in place", shape.name, n)
			}
		}
	}
}

// FuzzSeal seals a packet of arbitrary fields and payload and holds the
// result to the two-pass definition; then any single flipped bit must be
// rejected — by the VCRC always, and by the ICRC too wherever the bit
// lies in what the ICRC protects.
func FuzzSeal(f *testing.F) {
	f.Add(uint8(0), false, uint16(4), uint16(9), uint8(3), uint16(0x8005), uint32(11), uint32(77), []byte("datagram payload"), uint32(200))
	f.Add(uint8(1), true, uint16(1), uint16(2), uint8(0), uint16(0xFFFF), uint32(2), uint32(0xFFFFFF), make([]byte, 1024), uint32(8000))
	f.Add(uint8(4), false, uint16(2), uint16(1), uint8(15), uint16(0x8001), uint32(1), uint32(5), []byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, shape uint8, grh bool, slid, dlid uint16, vl uint8, pkey uint16, destQP, psn uint32, payload []byte, bit uint32) {
		p := headerShapes[int(shape)%len(headerShapes)].mk()
		if grh && p.GRH == nil {
			p.GRH = &packet.GRH{TClass: vl, FlowLabel: psn & 0xFFFFF, HopLmt: uint8(slid)}
		}
		p.LRH = packet.LRH{VL: vl & 0xF, SL: vl >> 4, SLID: packet.LID(slid), DLID: packet.LID(dlid)}
		p.BTH.PKey, p.BTH.DestQP, p.BTH.PSN = packet.PKey(pkey), packet.QPN(destQP&0xFFFFFF), psn&0xFFFFFF
		if len(payload) > packet.MTU {
			payload = payload[:packet.MTU]
		}
		copy(p.AllocPayload(len(payload)), payload)
		if err := Seal(p); err != nil {
			t.Fatal(err)
		}
		checkSealed(t, p)

		wire := p.Marshal()
		region, _ := InvariantRegion(wire)
		i := int(bit) % (len(wire) * 8)
		wire[i/8] ^= 1 << (i % 8)
		if ok, err := VerifyVCRC(wire); err == nil && ok {
			t.Fatalf("bit %d flipped: VCRC still verifies", i)
		}
		flipped, err := InvariantRegion(wire)
		inICRC := i/8 >= len(wire)-6 && i/8 < len(wire)-2
		if err == nil && (inICRC || string(flipped) != string(region)) {
			if ok, err := VerifyICRC(wire); err == nil && ok {
				t.Fatalf("bit %d flipped in the invariant region: ICRC still verifies", i)
			}
		}
	})
}
