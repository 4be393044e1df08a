package packet

import (
	"bytes"
	"strings"
	"testing"
)

// mkInPlace is mkUD built the way the send paths build a message: the
// payload is written into the window AllocPayload returns.
func mkInPlace(t *testing.T, payload int, grh bool) *Packet {
	t.Helper()
	p := &Packet{
		LRH:  LRH{VL: 1, SL: 2, DLID: 7, SLID: 3},
		BTH:  BTH{OpCode: UDSendOnly, PKey: 0x8001, DestQP: 42, PSN: 100},
		DETH: &DETH{QKey: 0xDEADBEEF, SrcQP: 17},
		ICRC: 0xA1B2C3D4,
		VCRC: 0xE5F6,
	}
	if grh {
		p.GRH = &GRH{HopLmt: 9}
	}
	for i, w := 0, p.AllocPayload(payload); i < len(w); i++ {
		w[i] = byte(i)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	return p
}

// trailer returns the six CRC bytes that end a wire image.
func trailer(wire []byte) []byte { return wire[len(wire)-ICRCSize-VCRCSize:] }

// The packet owns its image: after AllocPayload, Payload and the image
// Wire returns are the same bytes, for every header shape and every
// padding the payload length can need.
func TestAllocPayloadAliasesImage(t *testing.T) {
	for _, grh := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 4, 33, 1024} {
			p := mkInPlace(t, n, grh)
			wire := p.Wire()
			hs := p.HeaderSize()
			if len(wire) != p.WireSize() || &wire[hs] != &p.Payload[0] {
				t.Fatalf("grh=%v n=%d: Wire() is not the image Payload lives in", grh, n)
			}
			if !bytes.Equal(wire, p.Clone().Marshal()) {
				t.Fatalf("grh=%v n=%d: in-place image differs from an allocate-and-copy Marshal", grh, n)
			}
			p.Payload[n-1] = 0x5C
			if wire[hs+n-1] != 0x5C {
				t.Fatalf("grh=%v n=%d: write through Payload not visible in the image", grh, n)
			}
			wire[hs] = 0xC5
			if p.Payload[0] != 0xC5 {
				t.Fatalf("grh=%v n=%d: write through the image not visible in Payload", grh, n)
			}
			// A header change is re-marshalled into the same buffer.
			p.LRH.VL = 7
			p.InvalidateWire()
			if again := p.Wire(); &again[0] != &wire[0] || again[0]>>4 != 7 {
				t.Fatalf("grh=%v n=%d: re-marshal after InvalidateWire left the image", grh, n)
			}
		}
	}
	// An empty payload still gets one image holding headers and trailers.
	p := mkInPlace(t, 0, false)
	if len(p.Payload) != 0 || len(p.Wire()) != p.HeaderSize()+ICRCSize+VCRCSize {
		t.Fatalf("empty payload: image is %d bytes", len(p.Wire()))
	}
}

// The window's capacity ends where the pad and trailers begin, so a
// caller's append reallocates instead of overwriting them.
func TestAppendToPayloadLeavesTrailer(t *testing.T) {
	p := mkInPlace(t, 5, false)
	wire := p.Wire()
	want := append([]byte(nil), wire...)
	grown := append(p.Payload, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	if &grown[0] == &p.Payload[0] {
		t.Fatal("append grew the payload window inside the image")
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("append to Payload changed the image:\n got %x\nwant %x", wire, want)
	}
}

// Replacing or resizing Payload after AllocPayload is legal: Wire notices
// and produces a correct image (fresh when the bytes no longer sit in
// place), leaving nothing of the old payload behind.
func TestPayloadReplacedFallsBack(t *testing.T) {
	check := func(name string, p *Packet) {
		t.Helper()
		if err := p.Finalize(); err != nil {
			t.Fatal(err)
		}
		p.InvalidateWire()
		wire := p.Wire()
		if want := p.Clone().Marshal(); !bytes.Equal(wire, want) {
			t.Fatalf("%s: image\n got %x\nwant %x", name, wire, want)
		}
		var q Packet
		if err := q.Unmarshal(wire); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(q.Payload, p.Payload) {
			t.Fatalf("%s: payload did not survive the wire", name)
		}
	}

	p := mkInPlace(t, 8, false)
	old := p.Wire()
	p.Payload = []byte{9, 8, 7, 6, 5, 4, 3, 2} // same length, other bytes
	check("replaced", p)
	if &p.Wire()[0] == &old[0] {
		t.Fatal("replaced payload was marshalled into the old image")
	}

	p = mkInPlace(t, 8, false)
	p.Payload = p.Payload[:5] // same padded size: stays in place, pad must be zeroed
	check("shrunk within the pad", p)

	p = mkInPlace(t, 8, false)
	p.Payload = p.Payload[:2]
	check("shrunk", p)

	p = mkInPlace(t, 8, false)
	p.Payload = append(p.Payload, 1, 2, 3)
	check("grown", p)

	p = mkInPlace(t, 8, false)
	p.Payload = p.Payload[4:]
	check("resliced from the front", p)

	p = mkInPlace(t, 8, false)
	p.GRH = &GRH{HopLmt: 3} // header shape changed under the window
	check("GRH added", p)
}

// Marshal's result is the caller's: the bit-error model and the attack
// suite flip bits in it, which must never reach the packet in flight.
func TestMarshalIsPrivateCopy(t *testing.T) {
	p := mkInPlace(t, 64, false)
	want := append([]byte(nil), p.Wire()...)
	m := p.Marshal()
	if !bytes.Equal(m, want) {
		t.Fatal("Marshal differs from Wire")
	}
	for i := range m {
		m[i] ^= 0xFF
	}
	if !bytes.Equal(p.Wire(), want) {
		t.Fatal("mutating Marshal's result changed the packet's image")
	}
}

// A clone never shares the original's image or payload.
func TestCloneSharesNoImage(t *testing.T) {
	p := mkInPlace(t, 64, true)
	want := append([]byte(nil), p.Wire()...)
	c := p.Clone()
	c.Payload[0] ^= 0xFF
	cw := c.Wire()
	for i := range cw {
		cw[i] ^= 0xFF
	}
	if !bytes.Equal(p.Wire(), want) {
		t.Fatal("mutating a clone changed the original's image")
	}
	if !bytes.Equal(trailer(p.Wire()), []byte{0xA1, 0xB2, 0xC3, 0xD4, 0xE5, 0xF6}) {
		t.Fatal("original's trailer moved")
	}
}

func TestAllocPayloadNegativePanicsByName(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "AllocPayload") {
			t.Fatalf("panic %q does not name AllocPayload", msg)
		}
	}()
	new(Packet).AllocPayload(-1)
}
