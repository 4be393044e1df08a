package fabric

import (
	"math/rand"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
)

func TestBERValidation(t *testing.T) {
	p := DefaultParams()
	p.BitErrorRate = 1e-6
	if p.Validate() == nil {
		t.Fatal("BER without RNG accepted")
	}
	p.RNG = rand.New(rand.NewSource(1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.BitErrorRate = -1
	if p.Validate() == nil {
		t.Fatal("negative BER accepted")
	}
	p.BitErrorRate = 1
	if p.Validate() == nil {
		t.Fatal("BER 1 accepted")
	}
}

// With an aggressive bit-error rate, corrupted packets are dropped by
// CRC checks — never delivered with wrong contents — and clean packets
// still get through.
func TestCorruptionDetectedNeverDelivered(t *testing.T) {
	params := DefaultParams()
	params.BitErrorRate = 2e-5 // ~16% strike probability per 1 KiB packet/link
	params.RNG = rand.New(rand.NewSource(7))
	s, a, b, sw := twoHCAs(t, params)

	delivered := 0
	b.OnDeliver = func(d *Delivery) {
		delivered++
		// Whatever arrives must be byte-identical to what was sent:
		// payload full of 0x5A.
		for _, x := range d.Pkt.Payload {
			if x != 0x5A {
				t.Fatal("corrupted payload delivered")
			}
		}
		if d.Pkt.BTH.PKey != 0x8001 || d.Pkt.LRH.DLID != 2 {
			t.Fatal("corrupted header delivered")
		}
	}

	const sent = 400
	for i := 0; i < sent; i++ {
		p := &packet.Packet{
			LRH:  packet.LRH{SLID: 1, DLID: 2},
			BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1, PSN: uint32(i)},
			DETH: &packet.DETH{QKey: 1, SrcQP: 1},
		}
		p.Payload = make([]byte, 1024)
		for j := range p.Payload {
			p.Payload[j] = 0x5A
		}
		if err := icrc.Seal(p); err != nil {
			t.Fatal(err)
		}
		a.Send(&Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort})
	}
	s.Run()

	drops := sw.Counters.Value(SwVCRCDrops) + b.Counters.Value(HCAVCRCDrops) +
		b.Counters.Value(HCAICRCDrops)
	if drops == 0 {
		t.Fatal("no corruption events at 2e-5 BER over 400 KiB")
	}
	if delivered+int(drops) != sent {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, drops, sent)
	}
	if delivered < sent/2 {
		t.Fatalf("only %d/%d clean deliveries — corruption model too hot", delivered, sent)
	}
}

// A packet with a valid VCRC but stale ICRC (e.g. corrupted inside a
// switch after the last link check) must be caught by the end-to-end
// ICRC at the destination.
func TestICRCEndToEndCatch(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	delivered := 0
	b.OnDeliver = func(d *Delivery) { delivered++ }

	p := mkPkt(1, 2, VLBestEffort, 128)
	p.Payload[0] ^= 0xFF // tamper AFTER sealing the ICRC...
	p.InvalidateWire()   // mutation contract: drop the seal-time image
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	wire := p.Marshal()
	vc, _ := icrc.VCRC(wire)
	p.VCRC = vc // ...but fix the VCRC as a link-local device would

	d := &Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort}
	d.Tainted = true // mark as suspect so the end check runs
	a.Send(d)
	s.Run()
	if delivered != 0 {
		t.Fatal("ICRC-stale packet delivered")
	}
	if b.Counters.Value(HCAICRCDrops) != 1 {
		t.Fatalf("icrc_drops = %d", b.Counters.Value(HCAICRCDrops))
	}
}

// Authentication-tagged packets (AuthID != 0) skip the ICRC recomputation
// at the HCA — the transport layer verifies the tag instead.
func TestTaintedAuthPacketReachesTransport(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	delivered := 0
	b.OnDeliver = func(d *Delivery) { delivered++ }

	p := mkPkt(1, 2, VLBestEffort, 64)
	p.InvalidateWire() // settle the sealed CRCs before the tag takes the ICRC field
	p.BTH.AuthID = 3
	p.ICRC = 0xABCD1234 // tag, not a CRC
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	d := &Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort}
	d.Tainted = true
	a.Send(d)
	s.Run()
	if delivered != 1 {
		t.Fatal("auth packet blocked by ICRC check")
	}
}

func TestMalformedAlwaysDropped(t *testing.T) {
	params := DefaultParams()
	s, a, b, sw := twoHCAs(t, params)
	n := 0
	b.OnDeliver = func(d *Delivery) { n++ }
	d := &Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort}
	d.Malformed = true
	d.Tainted = true
	a.Send(d)
	s.Run()
	if n != 0 {
		t.Fatal("malformed packet delivered")
	}
	if sw.Counters.Value(SwVCRCDrops) != 1 {
		t.Fatalf("vcrc_drops = %d", sw.Counters.Value(SwVCRCDrops))
	}
}
