package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mkUD(payload int) *Packet {
	p := &Packet{
		LRH:  LRH{VL: 1, SL: 2, DLID: 7, SLID: 3},
		BTH:  BTH{OpCode: UDSendOnly, PKey: 0x8001, DestQP: 42, PSN: 100},
		DETH: &DETH{QKey: 0xDEADBEEF, SrcQP: 17},
	}
	p.Payload = make([]byte, payload)
	for i := range p.Payload {
		p.Payload[i] = byte(i)
	}
	if err := p.Finalize(); err != nil {
		panic(err)
	}
	return p
}

func TestHeaderSizes(t *testing.T) {
	if LRHSize != 8 || GRHSize != 40 || BTHSize != 12 || DETHSize != 8 ||
		RETHSize != 16 || AETHSize != 4 {
		t.Fatal("header size constants drifted from the IBA spec")
	}
}

func TestOpcodeService(t *testing.T) {
	cases := []struct {
		op  OpCode
		svc Service
	}{
		{RCSendOnly, ServiceRC},
		{RCAck, ServiceRC},
		{UDSendOnly, ServiceUD},
		{UDSendOnlyImm, ServiceUD},
		{OpCode(0x24), ServiceUC},
		{OpCode(0x44), ServiceRD},
	}
	for _, c := range cases {
		if got := c.op.Service(); got != c.svc {
			t.Errorf("%v.Service() = %v, want %v", c.op, got, c.svc)
		}
	}
}

func TestOpcodeHeaders(t *testing.T) {
	if !UDSendOnly.HasDETH() || RCSendOnly.HasDETH() {
		t.Error("DETH presence wrong")
	}
	if !RCRDMAWriteOnly.HasRETH() || UDSendOnly.HasRETH() {
		t.Error("RETH presence wrong")
	}
	if !RCAck.HasAETH() || RCSendOnly.HasAETH() {
		t.Error("AETH presence wrong")
	}
	if !UDSendOnlyImm.HasImm() || UDSendOnly.HasImm() {
		t.Error("Imm presence wrong")
	}
	if RCAck.HasPayload() || !RCSendOnly.HasPayload() {
		t.Error("payload presence wrong")
	}
}

func TestPKeyMembership(t *testing.T) {
	full := PKey(0x8123)
	lim := PKey(0x0123)
	if !full.Full() || lim.Full() {
		t.Fatal("membership bit")
	}
	if full.Base() != 0x0123 || lim.Base() != 0x0123 {
		t.Fatal("base value")
	}
}

func TestUDRoundTrip(t *testing.T) {
	p := mkUD(100)
	p.ICRC = 0x11223344
	p.VCRC = 0x5566
	b := p.Marshal()
	var q Packet
	if err := q.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &q) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, *p)
	}
}

func TestPadding(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 1023, 1024} {
		p := mkUD(n)
		if (len(p.Payload)+int(p.BTH.PadCnt))%4 != 0 {
			t.Fatalf("payload %d: pad %d not 4-aligned", n, p.BTH.PadCnt)
		}
		b := p.Marshal()
		if len(b) != p.WireSize() {
			t.Fatalf("payload %d: marshal len %d != WireSize %d", n, len(b), p.WireSize())
		}
		if len(b)%4 != VCRCSize%4 {
			// LRH..ICRC must be 4-byte aligned (PktLen is in words).
			t.Fatalf("payload %d: wire size %d misaligned", n, len(b))
		}
		var q Packet
		if err := q.Unmarshal(b); err != nil {
			t.Fatalf("payload %d: %v", n, err)
		}
		if len(q.Payload) != n {
			t.Fatalf("payload %d: got %d after round trip", n, len(q.Payload))
		}
	}
}

func TestMTUExceeded(t *testing.T) {
	p := &Packet{BTH: BTH{OpCode: UDSendOnly}, DETH: &DETH{}}
	p.Payload = make([]byte, MTU+1)
	if err := p.Finalize(); err == nil {
		t.Fatal("Finalize accepted payload over MTU")
	}
}

func TestGRHRoundTrip(t *testing.T) {
	p := mkUD(64)
	p.GRH = &GRH{TClass: 5, FlowLabel: 0xABCDE, HopLmt: 3}
	for i := range p.GRH.SGID {
		p.GRH.SGID[i] = byte(i)
		p.GRH.DGID[i] = byte(0xF0 + i)
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if p.LRH.LNH != LNHIBAGlobal {
		t.Fatalf("LNH = %d, want global", p.LRH.LNH)
	}
	if p.GRH.IPVer != 6 || p.GRH.NxtHdr != 0x1B {
		t.Fatal("GRH constants not filled")
	}
	b := p.Marshal()
	var q Packet
	if err := q.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, &q) {
		t.Fatalf("GRH round trip mismatch")
	}
}

func TestRCVariants(t *testing.T) {
	rdma := &Packet{
		LRH:     LRH{DLID: 1, SLID: 2},
		BTH:     BTH{OpCode: RCRDMAWriteOnly, PKey: 0x8002, DestQP: 9, PSN: 7, AckReq: true},
		RETH:    &RETH{VA: 0x1000_0000_0000, RKey: 0xCAFE, DMALen: 256},
		Payload: make([]byte, 256),
	}
	if err := rdma.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := rdma.Marshal()
	var q Packet
	if err := q.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if q.RETH == nil || q.RETH.RKey != 0xCAFE || q.RETH.VA != 0x1000_0000_0000 {
		t.Fatalf("RETH mismatch: %+v", q.RETH)
	}
	if !q.BTH.AckReq {
		t.Fatal("AckReq lost")
	}

	ack := &Packet{
		LRH:  LRH{DLID: 2, SLID: 1},
		BTH:  BTH{OpCode: RCAck, PKey: 0x8002, DestQP: 8, PSN: 7},
		AETH: &AETH{Syndrome: 0x20, MSN: 5},
	}
	if err := ack.Finalize(); err != nil {
		t.Fatal(err)
	}
	var q2 Packet
	if err := q2.Unmarshal(ack.Marshal()); err != nil {
		t.Fatal(err)
	}
	if q2.AETH == nil || q2.AETH.Syndrome != 0x20 || q2.AETH.MSN != 5 {
		t.Fatalf("AETH mismatch: %+v", q2.AETH)
	}
}

func TestImmediate(t *testing.T) {
	p := mkUD(8)
	p.BTH.OpCode = UDSendOnlyImm
	p.Imm = 0xFEEDF00D
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.Unmarshal(p.Marshal()); err != nil {
		t.Fatal(err)
	}
	if q.Imm != 0xFEEDF00D {
		t.Fatalf("Imm = %#x", q.Imm)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var q Packet
	if err := q.Unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("accepted short buffer")
	}
	p := mkUD(32)
	b := p.Marshal()
	if err := q.Unmarshal(b[:len(b)-4]); err == nil {
		t.Fatal("accepted truncated buffer")
	}
}

func TestAuthIDInResv8a(t *testing.T) {
	p := mkUD(16)
	p.BTH.AuthID = 4
	b := p.Marshal()
	// Resv8a is byte 4 of the BTH, which starts right after the LRH.
	if b[LRHSize+4] != 4 {
		t.Fatalf("AuthID not at Resv8a offset: % x", b[:LRHSize+BTHSize])
	}
	var q Packet
	if err := q.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	if q.BTH.AuthID != 4 {
		t.Fatal("AuthID lost in round trip")
	}
}

func TestClone(t *testing.T) {
	p := mkUD(40)
	q := p.Clone()
	q.Payload[0] = 0xFF
	q.DETH.QKey = 1
	if p.Payload[0] == 0xFF || p.DETH.QKey == 1 {
		t.Fatal("Clone shares state with original")
	}
	if !bytes.Equal(p.Payload[1:], q.Payload[1:]) {
		t.Fatal("Clone diverged beyond mutation")
	}
}

func TestStringContainsOpcode(t *testing.T) {
	p := mkUD(0)
	p.BTH.AuthID = 2
	s := p.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("UD_SEND_ONLY")) {
		t.Fatalf("String() = %q", s)
	}
}

// Property: any UD packet with random field values survives a
// marshal/unmarshal round trip bit-exactly.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ops := []OpCode{UDSendOnly, UDSendOnlyImm, RCSendOnly, RCRDMAWriteOnly, RCAck}
		op := ops[r.Intn(len(ops))]
		p := &Packet{
			LRH: LRH{
				VL:   uint8(r.Intn(16)),
				SL:   uint8(r.Intn(16)),
				DLID: LID(r.Intn(1 << 16)),
				SLID: LID(r.Intn(1 << 16)),
			},
			BTH: BTH{
				OpCode: op,
				SE:     r.Intn(2) == 0,
				PKey:   PKey(r.Intn(1 << 16)),
				AuthID: uint8(r.Intn(BTHAuthIDMax + 1)),
				FECN:   r.Intn(2) == 0,
				BECN:   r.Intn(2) == 0,
				DestQP: QPN(r.Intn(1 << 24)),
				PSN:    uint32(r.Intn(1 << 24)),
			},
			ICRC: r.Uint32(),
			VCRC: uint16(r.Intn(1 << 16)),
		}
		if op.HasDETH() {
			p.DETH = &DETH{QKey: QKey(r.Uint32()), SrcQP: QPN(r.Intn(1 << 24))}
		}
		if op.HasRETH() {
			p.RETH = &RETH{VA: r.Uint64(), RKey: RKey(r.Uint32()), DMALen: r.Uint32()}
		}
		if op.HasAETH() {
			p.AETH = &AETH{Syndrome: uint8(r.Intn(256)), MSN: uint32(r.Intn(1 << 24))}
		}
		if op.HasImm() {
			p.Imm = r.Uint32()
		}
		if op.HasPayload() {
			p.Payload = make([]byte, r.Intn(MTU+1))
			r.Read(p.Payload)
			if len(p.Payload) == 0 {
				p.Payload = nil
			}
		}
		if err := p.Finalize(); err != nil {
			return false
		}
		var q Packet
		if err := q.Unmarshal(p.Marshal()); err != nil {
			return false
		}
		return reflect.DeepEqual(p, &q)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Robustness: Unmarshal must never panic on arbitrary bytes — it either
// parses or returns an error (wire input is attacker-controlled).
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var q Packet
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(160)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %d random bytes: %v (% x)", n, r, buf)
				}
			}()
			_ = q.Unmarshal(buf)
		}()
	}
	// And on structurally-plausible buffers: take a valid packet and
	// mutate bytes/truncate randomly.
	base := mkUD(64).Marshal()
	for trial := 0; trial < 5000; trial++ {
		buf := append([]byte(nil), base...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 << uint(rng.Intn(8)))
		}
		if rng.Intn(4) == 0 {
			buf = buf[:rng.Intn(len(buf)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutated packet: %v", r)
				}
			}()
			_ = q.Unmarshal(buf)
		}()
	}
}

// Any buffer that parses must re-marshal to a same-length wire image
// whose re-parse is identical (idempotent decode).
func TestUnmarshalMarshalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	base := mkUD(200).Marshal()
	for trial := 0; trial < 2000; trial++ {
		buf := append([]byte(nil), base...)
		buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		var p Packet
		if err := p.Unmarshal(buf); err != nil {
			continue
		}
		// Some mutations change PadCnt so re-marshal can shift payload
		// bytes; only require that a successful re-parse agrees with
		// the first parse.
		var p2 Packet
		if err := p2.Unmarshal(p.Marshal()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !reflect.DeepEqual(&p, &p2) {
			t.Fatal("decode not idempotent")
		}
	}
}

func BenchmarkMarshalUD1024(b *testing.B) {
	p := mkUD(1024)
	b.SetBytes(int64(p.WireSize()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

func BenchmarkUnmarshalUD1024(b *testing.B) {
	buf := mkUD(1024).Marshal()
	var q Packet
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
