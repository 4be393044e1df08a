package fabric

import (
	"bytes"
	"reflect"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
)

// strikeKinds are the packets FuzzStrike flips bits of: every opcode the
// fabric's senders draw, and a MAD.
var strikeKinds = []packet.OpCode{
	packet.UDSendOnly, packet.UDSendOnlyImm, packet.RCSendOnly, packet.RCRDMAWriteOnly,
	packet.RCRDMAReadReq, packet.RCAck, packet.RCRDMAReadRespO, packet.UCSendOnly, packet.CNPNotify,
}

// sealedMessage draws a sealed message of kind k (an index into
// strikeKinds, or one past it for a MAD) with an n-byte payload where
// the kind carries one; tagged puts an authentication tag in the ICRC
// field, as a signing sender does.
func sealedMessage(tb testing.TB, params *Params, k int, n int, tagged bool) *Delivery {
	tb.Helper()
	if k == len(strikeKinds) {
		return params.NewMAD(3, 9, bytes.Repeat([]byte{0x5C}, n%257))
	}
	op := strikeKinds[k]
	if op == packet.RCRDMAReadReq || op == packet.RCAck || op == packet.CNPNotify {
		n = 0
	}
	d := params.NewMessage(ClassBestEffort, packet.LRH{SLID: 3, DLID: 9},
		packet.BTH{OpCode: op, PKey: 0x8001, DestQP: 7, PSN: 0x123456}, n%(packet.MTU+1))
	for i := range d.Pkt.Payload {
		d.Pkt.Payload[i] = byte(i*7 + 1)
	}
	if d.Pkt.DETH != nil {
		*d.Pkt.DETH = packet.DETH{QKey: 0x1111, SrcQP: 5}
	}
	if d.Pkt.RETH != nil {
		*d.Pkt.RETH = packet.RETH{VA: 0x1000, RKey: 77, DMALen: uint32(len(d.Pkt.Payload))}
	}
	if d.Pkt.AETH != nil {
		*d.Pkt.AETH = packet.AETH{MSN: 0x123456}
	}
	d.Pkt.Imm = 0xCAFEF00D
	if tagged {
		d.Pkt.BTH.AuthID = 2
		d.Pkt.ICRC = 0xA5A5A5A5
	}
	if err := icrc.Seal(d.Pkt); err != nil {
		tb.Fatal(err)
	}
	return d
}

// verdict is one CRC check's outcome, with a check that errs counted as
// failing, as the devices count it.
func verdict(ok bool, err error) bool { return ok && err == nil }

// FuzzStrike flips any bit of any kind of packet's image, twice, and
// checks the packet each strike leaves in the delivery — parsed in place
// in pooled storage — against packet.Unmarshal of the same flipped bytes:
// the same fields, the same image, the same malformed verdict and the
// same VCRC and ICRC verdicts. A malformed strike leaves the packet as it
// was; a later strike hands the storage of the one it replaces back, and
// the message's terminal the storage it holds.
func FuzzStrike(f *testing.F) {
	for k := 0; k <= len(strikeKinds); k++ {
		f.Add(uint8(k), uint16(64), uint32(7), uint32(4000), false)
	}
	f.Add(uint8(0), uint16(1024), uint32(8*300+3), uint32(12), true)
	f.Add(uint8(0), uint16(33), uint32(13), uint32(1), false) // LNH: reads a GRH
	f.Add(uint8(0), uint16(33), uint32(4*8+2), uint32(0), false)
	f.Fuzz(func(t *testing.T, kind uint8, n uint16, bit, again uint32, tagged bool) {
		params := DefaultParams()
		d := sealedMessage(t, params, int(kind)%(len(strikeKinds)+1), int(n), tagged)
		b := d.home
		strikes := 0
		for _, raw := range []uint32{bit, again} {
			if d.Malformed {
				break
			}
			strikes++
			before := d.Pkt
			i := int(raw % uint32(d.Pkt.WireSize()*8))
			wire := d.Pkt.Marshal()
			wire[i/8] ^= 1 << uint(i%8)
			var want packet.Packet
			werr := want.Unmarshal(wire)

			params.strike(d, i)
			d.Tainted = true
			if d.Malformed != (werr != nil) {
				t.Fatalf("bit %d: malformed %v, Unmarshal says %v", i, d.Malformed, werr)
			}
			if werr != nil {
				if d.Pkt != before {
					t.Fatal("a malformed strike replaced the packet")
				}
				continue
			}
			if b.struck == nil || d.Pkt != &b.struck.p {
				t.Fatal("the struck packet is not the block's strike storage")
			}
			if got, w := d.Pkt.Clone(), want.Clone(); !reflect.DeepEqual(got, w) {
				t.Fatalf("bit %d: strike parsed\n%+v\nUnmarshal parsed\n%+v", i, got, w)
			}
			got, exp := d.Pkt.Wire(), want.Wire()
			if !bytes.Equal(got, exp) {
				t.Fatalf("bit %d: struck image differs from the unmarshalled packet's", i)
			}
			if vcrcOK(d) != verdict(icrc.VerifyVCRC(exp)) {
				t.Fatalf("bit %d: VCRC verdict %v differs from the unmarshalled packet's", i, vcrcOK(d))
			}
			if verdict(icrc.VerifyICRC(got)) != verdict(icrc.VerifyICRC(exp)) {
				t.Fatalf("bit %d: ICRC verdict differs from the unmarshalled packet's", i)
			}
		}
		params.release(d, ObsCRCDrop)
		if b.struck != nil {
			t.Fatal("the terminal kept the strike storage")
		}
		// Each strike took storage of its own, and all of it is back: a
		// malformed one's at once, a replaced one's at the next strike,
		// the last one's at the terminal.
		if !PoolPoison && len(params.pool.strikes) != strikes {
			t.Fatalf("%d strikes, %d strike storages back", strikes, len(params.pool.strikes))
		}
	})
}

// A bit strike allocates nothing once the strike pool and the message
// free list have warmed up: the flipped bytes are parsed into storage that
// the message's terminal returns.
func TestStrikeAllocatesNothing(t *testing.T) {
	if PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	params := DefaultParams()
	bit := 8 * (packet.LRHSize + packet.BTHSize + packet.DETHSize + 100) // a payload bit: the parse succeeds
	strike := func() {
		d := sealedMessage(t, params, 0, packet.MTU, false)
		params.strike(d, bit)
		if d.Malformed || d.Pkt != &d.home.struck.p {
			t.Fatal("the strike did not leave a parsed packet")
		}
		d.Pkt.Wire() // the first read serializes the image, as a switch's VCRC check does
		params.release(d, ObsCRCDrop)
	}
	if got := testing.AllocsPerRun(50, strike); got != 0 {
		t.Fatalf("a strike allocated %.1f times, want 0", got)
	}
}

// In the poison build a struck packet read after its message's terminal
// faults: its payload window reads the poison bytes, its headers are gone
// and the delivery no longer points at it.
func TestStrikePoisonedAtRelease(t *testing.T) {
	if !PoolPoison {
		t.Skip("use-after-release is detected only under -tags poolpoison")
	}
	params := DefaultParams()
	d := sealedMessage(t, params, 0, 64, false)
	params.strike(d, 8*(packet.LRHSize+packet.BTHSize+packet.DETHSize+10))
	struck, window := d.Pkt, d.Pkt.Payload
	if d.Malformed || struck != &d.home.struck.p {
		t.Fatal("the strike did not leave a parsed packet")
	}
	params.release(d, ObsDeliver)
	if d.Pkt != nil {
		t.Fatal("the delivery still points at a packet")
	}
	for i, c := range window {
		if c != 0xDB {
			t.Fatalf("payload byte %d reads %#x after release, want the poison 0xdb", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading the struck packet's DETH after release did not fault")
		}
	}()
	_ = struck.DETH.QKey
}
