package icrc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"ibasec/internal/packet"
)

func mkPacket(payload int, grh bool) *packet.Packet {
	p := &packet.Packet{
		LRH:  packet.LRH{VL: 3, SL: 1, DLID: 9, SLID: 4},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8005, DestQP: 11, PSN: 77},
		DETH: &packet.DETH{QKey: 0x1234, SrcQP: 6},
	}
	if grh {
		p.GRH = &packet.GRH{TClass: 1, FlowLabel: 2, HopLmt: 64}
	}
	p.Payload = make([]byte, payload)
	for i := range p.Payload {
		p.Payload[i] = byte(i * 7)
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

// The slicing-by-8 update32, which the ICRC runs over the masked header,
// must match the stdlib IEEE checksum (CRC32 itself) on raw data — both
// are the reflected 0x04C11DB7 CRC.
func TestCRC32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		n := rng.Intn(2000)
		data := make([]byte, n)
		rng.Read(data)
		if got, want := ^update32(^uint32(0), data), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("len %d: update32 = %#x, stdlib = %#x", n, got, want)
		}
	}
}

// CRC32Bitwise is the reference bit-serial implementation of CRC32, used
// to cross-check update32 in tests.
func CRC32Bitwise(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly32Reflected
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func TestCRC32BitwiseMatchesTable(t *testing.T) {
	f := func(data []byte) bool { return ^update32(^uint32(0), data) == CRC32Bitwise(data) }
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// The classic CRC-32 check value: "123456789" -> 0xCBF43926.
	if got := CRC32([]byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("CRC32(check) = %#x, want 0xCBF43926", got)
	}
}

func TestCRC16Properties(t *testing.T) {
	if CRC16(nil) != 0xFFFF {
		t.Fatalf("CRC16(empty) = %#x, want init value 0xFFFF", CRC16(nil))
	}
	a := CRC16([]byte("hello"))
	b := CRC16([]byte("hellp"))
	if a == b {
		t.Fatal("CRC16 failed to distinguish single-bit-different inputs")
	}
	if a != CRC16([]byte("hello")) {
		t.Fatal("CRC16 not deterministic")
	}
}

// Single-bit errors anywhere in the protected region must be detected by
// CRC32 (guaranteed property of any CRC with a poly of degree > 1).
func TestCRC32DetectsSingleBitErrors(t *testing.T) {
	data := make([]byte, 256)
	rand.New(rand.NewSource(3)).Read(data)
	base := CRC32(data)
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			data[i] ^= 1 << bit
			if CRC32(data) == base {
				t.Fatalf("missed single-bit flip at byte %d bit %d", i, bit)
			}
			data[i] ^= 1 << bit
		}
	}
}

func TestSealVerify(t *testing.T) {
	p := mkPacket(200, false)
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	wire := p.Marshal()
	if ok, err := VerifyICRC(wire); err != nil || !ok {
		t.Fatalf("VerifyICRC = %v, %v", ok, err)
	}
	if ok, err := VerifyVCRC(wire); err != nil || !ok {
		t.Fatalf("VerifyVCRC = %v, %v", ok, err)
	}
}

// The defining property of the ICRC: changing variant fields (VL, Resv8a,
// GRH TClass/FlowLabel/HopLmt) must NOT change it; changing invariant
// fields must.
func TestICRCInvariance(t *testing.T) {
	p := mkPacket(64, true)
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	p.Wire() // the fields are current once the image is read
	base := p.ICRC

	q := p.Clone()
	q.LRH.VL = 9 // switch remaps the VL
	q.GRH.TClass = 0xAA
	q.GRH.FlowLabel = 0x1FFFF
	q.GRH.HopLmt = 1
	q.BTH.AuthID = 0 // keep zero; we only recompute
	ic, err := ICRC(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if ic != base {
		t.Fatalf("ICRC changed when only variant fields changed: %#x vs %#x", ic, base)
	}

	// Resv8a itself is variant — the paper's whole trick relies on this.
	q2 := p.Clone()
	q2.BTH.AuthID = 0xFF
	ic2, err := ICRC(q2.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if ic2 != base {
		t.Fatal("ICRC covers Resv8a; the paper's AuthID encoding would break packets")
	}

	// Invariant fields must be covered.
	for name, mut := range map[string]func(*packet.Packet){
		"DLID":    func(r *packet.Packet) { r.LRH.DLID++ },
		"SLID":    func(r *packet.Packet) { r.LRH.SLID++ },
		"PKey":    func(r *packet.Packet) { r.BTH.PKey++ },
		"DestQP":  func(r *packet.Packet) { r.BTH.DestQP++ },
		"PSN":     func(r *packet.Packet) { r.BTH.PSN++ },
		"QKey":    func(r *packet.Packet) { r.DETH.QKey++ },
		"payload": func(r *packet.Packet) { r.Payload[10] ^= 1 },
		"SGID":    func(r *packet.Packet) { r.GRH.SGID[0] ^= 1 },
	} {
		r := p.Clone()
		mut(r)
		ic, err := ICRC(r.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if ic == base {
			t.Errorf("ICRC did not cover invariant field %s", name)
		}
	}
}

// VCRC must change when anything before it changes, including the VL and
// the ICRC field itself.
func TestVCRCCoversEverything(t *testing.T) {
	p := mkPacket(32, false)
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	base := p.VCRC
	for name, mut := range map[string]func(*packet.Packet){
		"VL":   func(r *packet.Packet) { r.LRH.VL++ },
		"ICRC": func(r *packet.Packet) { r.ICRC ^= 1 },
	} {
		r := p.Clone()
		mut(r)
		vc, err := VCRC(r.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if vc == base {
			t.Errorf("VCRC did not cover %s", name)
		}
	}
}

// When an authentication tag occupies the ICRC field (AuthID != 0), Seal
// must leave the tag alone and still produce a valid VCRC.
func TestSealPreservesAuthTag(t *testing.T) {
	p := mkPacket(16, false)
	p.BTH.AuthID = 3
	p.ICRC = 0xA5A5A5A5 // pretend MAC tag
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	if p.ICRC != 0xA5A5A5A5 {
		t.Fatalf("Seal overwrote the authentication tag: %#x", p.ICRC)
	}
	if ok, err := VerifyVCRC(p.Marshal()); err != nil || !ok {
		t.Fatalf("VCRC invalid on auth packet: %v %v", ok, err)
	}
}

func TestWireCorruptionDetected(t *testing.T) {
	p := mkPacket(512, false)
	if err := Seal(p); err != nil {
		t.Fatal(err)
	}
	wire := p.Marshal()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		w := append([]byte(nil), wire...)
		// Corrupt a random bit in the invariant region.
		i := rng.Intn(len(w) - packet.ICRCSize - packet.VCRCSize)
		if i == 0 || i == packet.LRHSize+4 {
			continue // VL nibble / Resv8a are variant: legitimately mutable
		}
		w[i] ^= 1 << uint(rng.Intn(8))
		okI, _ := VerifyICRC(w)
		okV, _ := VerifyVCRC(w)
		if okI && okV {
			t.Fatalf("corruption at byte %d undetected by both CRCs", i)
		}
	}
}

func TestShortBufferErrors(t *testing.T) {
	if _, err := ICRC(make([]byte, 8)); err == nil {
		t.Fatal("ICRC accepted short buffer")
	}
	if _, err := VCRC(make([]byte, 8)); err == nil {
		t.Fatal("VCRC accepted short buffer")
	}
	if _, err := VerifyICRC(make([]byte, 3)); err == nil {
		t.Fatal("VerifyICRC accepted short buffer")
	}
	if _, err := VerifyVCRC(make([]byte, 3)); err == nil {
		t.Fatal("VerifyVCRC accepted short buffer")
	}
}

func BenchmarkCRC32_1024(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		CRC32(data)
	}
}

var (
	sinkCRC16 uint16
	sinkCRC32 uint32
)

// BenchmarkCRC16 times the VCRC kernel at a small packet's length (the
// fold's threshold is 32 B) and at 1 KiB.
func BenchmarkCRC16(b *testing.B) {
	for _, n := range []int{96, 1024} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			data := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sinkCRC16 = CRC16(data)
			}
		})
	}
}

// BenchmarkSealCRCs times settling both CRCs a sealed UD packet owes at
// the small payloads that must not get slower (64 B, and 68 B like an
// SMP's answer) and at 256 B and the MTU.
func BenchmarkSealCRCs(b *testing.B) {
	for _, n := range []int{64, 68, 256, 1024} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			wire := mkPacket(n, false).Marshal()
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkCRC32, sinkCRC16 = settle(wire, packet.OwedICRC|packet.OwedVCRC)
			}
		})
	}
}

// BenchmarkVerifyVCRC is the per-link check every switch and HCA input
// port runs on every packet when CRC checking is on.
func BenchmarkVerifyVCRC(b *testing.B) {
	p := mkPacket(1024, false)
	if err := Seal(p); err != nil {
		b.Fatal(err)
	}
	wire := p.Wire()
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := VerifyVCRC(wire)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkICRCSeal(b *testing.B) {
	p := mkPacket(1024, false)
	b.SetBytes(int64(p.WireSize()))
	for i := 0; i < b.N; i++ {
		if err := Seal(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyICRC is the receive-side per-packet ICRC verification —
// the path every tainted (and, with authentication, every delivered)
// packet takes, through a Verifier as each HCA does.
func BenchmarkVerifyICRC(b *testing.B) {
	p := mkPacket(1024, false)
	if err := Seal(p); err != nil {
		b.Fatal(err)
	}
	wire := p.Marshal()
	var v Verifier
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := v.VerifyICRC(wire)
		if err != nil || !ok {
			b.Fatalf("ok=%v err=%v", ok, err)
		}
	}
}

// The Verifier's methods must be bit-identical to the package-level
// functions: the scratch-backed region to the allocating one, the rest
// because they are the same code.
func TestVerifierMatchesPackageFunctions(t *testing.T) {
	var v Verifier
	for _, grh := range []bool{false, true} {
		for _, n := range []int{0, 1, 255, 1024} {
			p := mkPacket(n, grh)
			if err := Seal(p); err != nil {
				t.Fatal(err)
			}
			wire := p.Marshal()
			wantRegion, err := InvariantRegion(wire)
			if err != nil {
				t.Fatal(err)
			}
			gotRegion, err := v.InvariantRegion(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantRegion, gotRegion) {
				t.Fatalf("grh=%v n=%d: Verifier region differs", grh, n)
			}
			ok, err := v.VerifyICRC(wire)
			if err != nil || !ok {
				t.Fatalf("grh=%v n=%d: Verifier.VerifyICRC ok=%v err=%v", grh, n, ok, err)
			}
		}
	}
	// Error paths must match too.
	if _, err := v.InvariantRegion(make([]byte, 4)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := v.VerifyICRC(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
}

// Seal must leave the packet's cached wire image exactly equal to a
// fresh Marshal — trailer patching included — so downstream hops can
// trust the cache.
func TestSealInstallsConsistentWireCache(t *testing.T) {
	for _, grh := range []bool{false, true} {
		p := mkPacket(700, grh)
		if err := Seal(p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Wire(), p.Marshal()) {
			t.Fatalf("grh=%v: sealed wire cache differs from fresh Marshal", grh)
		}
		if ok, err := VerifyICRC(p.Wire()); err != nil || !ok {
			t.Fatalf("grh=%v: sealed cache fails ICRC: ok=%v err=%v", grh, ok, err)
		}
		if ok, err := VerifyVCRC(p.Wire()); err != nil || !ok {
			t.Fatalf("grh=%v: sealed cache fails VCRC: ok=%v err=%v", grh, ok, err)
		}
	}
}

// AllocsPerRun guard: the CRC paths allocate nothing per packet. The
// ICRC masks its few variant header bytes on the stack, so it needs no
// scratch and no warm-up; sealing a packet that owns its image writes
// both CRCs into that image (a literal payload costs the one image
// Wire() builds around it, which is BenchmarkICRCSeal's case); the
// per-link VCRC check and the VCRC-only reseal read it where it lies.
// Only the MAC's InvariantRegion copies, into the Verifier's scratch once
// that has grown to packet size.
func TestVerifierZeroAllocSteadyState(t *testing.T) {
	p := &packet.Packet{
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8005, DestQP: 11},
		DETH: &packet.DETH{QKey: 0x1234, SrcQP: 6},
	}
	p.AllocPayload(1024)
	allocs := testing.AllocsPerRun(100, func() {
		p.BTH.PSN++
		if err := Seal(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Seal of a packet that owns its image allocated %.1f times, want 0", allocs)
	}
	lit := mkPacket(1024, false)
	allocs = testing.AllocsPerRun(100, func() {
		if err := Seal(lit); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Seal of a literal-payload packet allocated %.1f times, want at most 1 (its image)", allocs)
	}
	wire := p.Marshal()
	allocs = testing.AllocsPerRun(100, func() {
		var v Verifier // fresh each time: there is no scratch to warm up
		if _, err := ICRC(wire); err != nil {
			t.Fatal(err)
		}
		ok, err := v.VerifyICRC(wire)
		if err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ICRC + VerifyICRC allocated %.1f times per packet, want 0", allocs)
	}
	var v Verifier
	if _, err := v.InvariantRegion(wire); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := v.InvariantRegion(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state InvariantRegion allocated %.1f times per packet, want 0", allocs)
	}
	// Each CRC entry point on its own, at a size the fold takes in one
	// stride, at an SMP's 68 B and at the MTU, so neither hash/crc32 nor
	// the fold kernel moves an argument to the heap. PatchPayload makes a
	// transit switch's edit, a fresh hop pointer and return-path byte, on
	// an image that owes its CRCs.
	edit := []byte{0, 0, 0}
	for _, n := range []int{64, 68, 1024} {
		q := &packet.Packet{
			BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8005, DestQP: 11},
			DETH: &packet.DETH{QKey: 0x1234, SrcQP: 6},
		}
		q.AllocPayload(n)
		if err := Seal(q); err != nil {
			t.Fatal(err)
		}
		w := q.Wire()
		for _, c := range []struct {
			name string
			fn   func() error
		}{
			{"ICRC", func() error { _, err := ICRC(w); return err }},
			{"VCRC", func() error { _, err := VCRC(w); return err }},
			{"PatchVCRC", func() error { PatchVCRC(q); return nil }},
			{"Seal+Wire", func() error {
				if err := Seal(q); err != nil {
					return err
				}
				q.Wire()
				return nil
			}},
			{"VerifyICRC", func() error { _, err := VerifyICRC(w); return err }},
			{"VerifyVCRC", func() error { _, err := VerifyVCRC(w); return err }},
			{"Seal+PatchPayload", func() error {
				if err := Seal(q); err != nil {
					return err
				}
				edit[0]++
				edit[2]--
				if !PatchPayload(q, 5, edit) {
					return errors.New("refused")
				}
				return nil
			}},
		} {
			if allocs := testing.AllocsPerRun(100, func() {
				if err := c.fn(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s at %d B allocated %.1f times per packet, want 0", c.name, n, allocs)
			}
		}
	}
}
