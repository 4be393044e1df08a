package icrc

import (
	"bytes"
	"math/rand"
	"testing"

	"ibasec/internal/packet"
)

// The slicing-by-8 CRC16 must equal the bit-serial reference for every
// length a wire image can have (and past it), and at every alignment of
// the input within a shared buffer, so neither the 8-byte main loop nor
// the byte-at-a-time tail can drift.
func TestCRC16MatchesBitwise(t *testing.T) {
	const maxLen = 2*packet.MTU + 8
	buf := make([]byte, maxLen+8)
	rand.New(rand.NewSource(16)).Read(buf)
	for n := 0; n <= maxLen; n++ {
		if got, want := CRC16(buf[:n]), CRC16Bitwise(buf[:n]); got != want {
			t.Fatalf("len %d: CRC16 = %#04x, bitwise = %#04x", n, got, want)
		}
	}
	for off := 0; off < 8; off++ {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, packet.MTU + 34, maxLen} {
			data := buf[off : off+n]
			if got, want := CRC16(data), CRC16Bitwise(data); got != want {
				t.Fatalf("offset %d len %d: CRC16 = %#04x, bitwise = %#04x", off, n, got, want)
			}
		}
	}
}

// Pinned answers, taken from the bit-serial implementation this kernel
// replaced: every VCRC on every wire image — and with it every golden
// CSV and benchmark digest — depends on these never moving.
func TestCRC16KnownAnswers(t *testing.T) {
	if got := CRC16(nil); got != 0xFFFF {
		t.Errorf("CRC16(nil) = %#04x, want 0xFFFF", got)
	}
	if got := CRC16([]byte("123456789")); got != 0xBA6E {
		t.Errorf("CRC16(check) = %#04x, want 0xBA6E", got)
	}
	for _, c := range []struct {
		name    string
		payload int
		grh     bool
		icrc    uint32
		vcrc    uint16
	}{
		{"1 KiB UD", 1024, false, 0xD95EFD5C, 0x0FCA},
		{"64 B GRH", 64, true, 0x1ECCE431, 0x0BB2},
	} {
		p := mkPacket(c.payload, c.grh)
		if err := Seal(p); err != nil {
			t.Fatal(err)
		}
		if p.ICRC != c.icrc || p.VCRC != c.vcrc {
			t.Errorf("%s: sealed ICRC/VCRC = %#08x/%#04x, want %#08x/%#04x", c.name, p.ICRC, p.VCRC, c.icrc, c.vcrc)
		}
		wire := p.Wire()
		if got := uint16(wire[len(wire)-2])<<8 | uint16(wire[len(wire)-1]); got != c.vcrc {
			t.Errorf("%s: VCRC on the wire = %#04x, want %#04x", c.name, got, c.vcrc)
		}
	}
}

// PatchVCRC after an in-place change to a variant byte (what a switch
// does when it sets FECN) must leave wire image and struct agreeing and
// the link CRC valid.
func TestPatchVCRC(t *testing.T) {
	p := mkPacket(256, true)
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	sealed := p.VCRC
	wire := p.Wire()
	wire[packet.LRHSize+packet.GRHSize+4] |= packet.BTHFECNBit
	p.BTH.FECN = true
	if ok, _ := VerifyVCRC(wire); ok {
		t.Fatal("stale VCRC still verifies after the wire changed")
	}
	if err := PatchVCRC(p); err != nil {
		t.Fatal(err)
	}
	if p.VCRC == sealed {
		t.Fatal("PatchVCRC left p.VCRC unchanged")
	}
	if ok, err := VerifyVCRC(p.Wire()); err != nil || !ok {
		t.Fatalf("VerifyVCRC after patch = %v, %v", ok, err)
	}
	if !bytes.Equal(p.Marshal(), p.Wire()) {
		t.Fatal("patched wire cache differs from a fresh Marshal")
	}
}

// FuzzCRC16 holds the table kernel to the bit-serial reference on
// arbitrary input, and to the one guarantee every CRC whose generator
// has a constant term gives: no single flipped bit goes unnoticed.
func FuzzCRC16(f *testing.F) {
	f.Add(mkPacket(64, true).Marshal(), uint16(500))
	f.Add(mkPacket(1024, false).Marshal(), uint16(8000))
	f.Fuzz(func(t *testing.T, data []byte, bit uint16) {
		base := CRC16(data)
		if want := CRC16Bitwise(data); base != want {
			t.Fatalf("len %d: CRC16 = %#04x, bitwise = %#04x", len(data), base, want)
		}
		if len(data) == 0 {
			return
		}
		i := int(bit) % (8 * len(data))
		data[i/8] ^= 1 << (i % 8)
		if CRC16(data) == base {
			t.Fatalf("len %d: flipping bit %d left CRC16 at %#04x", len(data), i, base)
		}
	})
}
