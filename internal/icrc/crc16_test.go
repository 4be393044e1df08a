package icrc

import (
	"bytes"
	"math/rand"
	"testing"

	"ibasec/internal/packet"
)

// CRC16Bitwise is the reference bit-serial implementation of CRC16, used
// to cross-check the fold and table kernels in tests.
func CRC16Bitwise(data []byte) uint16 { return update16Bitwise(^uint16(0), data) }

// update16Bitwise advances a CRC-16 register over data one bit at a time.
func update16Bitwise(crc uint16, data []byte) uint16 {
	for _, b := range data {
		crc ^= uint16(b) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly16
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Both CRC-16 kernels — update16, which folds with PCLMULQDQ where the
// CPU allows, and the slicing-by-8 update16Table — must equal the
// bit-serial reference for every length a wire image can have (and past
// it), at every alignment of the input against the fold's 16-byte blocks,
// and from any starting register, so neither the 64-byte stride, the
// single-block loop, the reduction nor either table loop can drift.
func TestCRC16MatchesBitwise(t *testing.T) {
	if !hasCLMUL {
		t.Log("no PCLMULQDQ or SSSE3 (or not amd64): update16 is the table kernel, the fold is not exercised")
	}
	const maxLen = 2*packet.MTU + 8
	rng := rand.New(rand.NewSource(16))
	buf := make([]byte, maxLen+16)
	rng.Read(buf)
	for _, init := range []uint16{0xFFFF, 0, uint16(rng.Intn(1 << 16))} {
		for off := 0; off < 16; off++ {
			want := init
			for n := 0; n <= maxLen; n++ {
				data := buf[off : off+n]
				if n > 0 {
					want = update16Bitwise(want, data[n-1:])
				}
				if got := update16(init, data); got != want {
					t.Fatalf("init %#04x offset %d len %d: update16 = %#04x, bitwise = %#04x", init, off, n, got, want)
				}
				if got := update16Table(init, data); got != want {
					t.Fatalf("init %#04x offset %d len %d: update16Table = %#04x, bitwise = %#04x", init, off, n, got, want)
				}
			}
		}
	}
	if got, want := CRC16(buf[:maxLen]), CRC16Bitwise(buf[:maxLen]); got != want {
		t.Fatalf("CRC16 = %#04x, bitwise = %#04x", got, want)
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
		wire := p.Wire() // the fields are current once the image is read
		if p.ICRC != c.icrc || p.VCRC != c.vcrc {
			t.Errorf("%s: sealed ICRC/VCRC = %#08x/%#04x, want %#08x/%#04x", c.name, p.ICRC, p.VCRC, c.icrc, c.vcrc)
		}
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
	wire := p.Wire() // the CRCs are current once the image is read
	sealed := p.VCRC
	wire[packet.LRHSize+packet.GRHSize+4] |= packet.BTHFECNBit
	p.BTH.FECN = true
	if ok, _ := VerifyVCRC(wire); ok {
		t.Fatal("stale VCRC still verifies after the wire changed")
	}
	PatchVCRC(p)
	if ok, err := VerifyVCRC(p.Wire()); err != nil || !ok {
		t.Fatalf("VerifyVCRC after patch = %v, %v", ok, err)
	}
	if p.VCRC == sealed {
		t.Fatal("PatchVCRC left p.VCRC unchanged")
	}
	if !bytes.Equal(p.Marshal(), p.Wire()) {
		t.Fatal("patched wire cache differs from a fresh Marshal")
	}
}

// FuzzCRC16 holds the fold and the table kernel to the bit-serial
// reference on arbitrary input, from the all-ones register and from one
// drawn from bit, and to the one guarantee every CRC whose generator has a
// constant term gives: no single flipped bit goes unnoticed. The seeds
// straddle the fold's 32-byte threshold and its 64-byte stride.
func FuzzCRC16(f *testing.F) {
	f.Add(mkPacket(64, true).Marshal(), uint16(500))
	f.Add(mkPacket(1024, false).Marshal(), uint16(8000))
	for _, n := range []int{31, 32, 33, 63, 64, 127, 128, 129} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*31 + n)
		}
		f.Add(data, uint16(n*13))
	}
	f.Fuzz(func(t *testing.T, data []byte, bit uint16) {
		base := CRC16(data)
		for _, init := range []uint16{0xFFFF, bit} {
			want := update16Bitwise(init, data)
			if got := update16(init, data); got != want {
				t.Fatalf("init %#04x len %d: update16 = %#04x, bitwise = %#04x", init, len(data), got, want)
			}
			if got := update16Table(init, data); got != want {
				t.Fatalf("init %#04x len %d: update16Table = %#04x, bitwise = %#04x", init, len(data), got, want)
			}
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
