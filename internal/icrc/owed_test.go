package icrc

import (
	"bytes"
	"testing"

	"ibasec/internal/packet"
)

// The steps of an owed-state program (see runOwed). Each is what some
// path of the simulator does to a sealed packet.
const (
	owedSeal        = iota // Seal, as every send does
	owedTag                // toggle a tag in the ICRC field, then Seal (a signed send)
	owedPatch              // PatchPayload, as a transit SMA does
	owedFECN               // set FECN in the image and PatchVCRC, as a switch does
	owedRestamp            // Restamp LRH.VL and SLID, as an HCA's send does
	owedReadWire           // read Wire
	owedReadMarshal        // read Marshal
	owedReadClone          // Clone, read the clone, and go on with it
	owedReadImage          // read Image, everything before the trailer
	owedTagUnread          // write a tag without invalidating, then Seal
	owedSteps
)

// runOwed applies one program to two copies of a packet: lazy, left to
// settle its owed CRCs when its trailer is read, and eager, settled after
// every step as if Seal and PatchVCRC still computed the CRCs at once. At
// every read both must show the same image bytes and CRC fields; and a
// packet sealed since its last remap must carry valid CRCs.
func runOwed(t *testing.T, shape int, grh bool, payload []byte, prog []byte) {
	t.Helper()
	mk := func() *packet.Packet {
		p := headerShapes[shape].mk()
		if grh && p.GRH == nil {
			p.GRH = &packet.GRH{TClass: 1, FlowLabel: 2, HopLmt: 64}
		}
		p.LRH = packet.LRH{VL: 3, DLID: 9, SLID: 4}
		p.BTH.PKey, p.BTH.DestQP, p.BTH.PSN = 0x8005, 11, 77
		copy(p.AllocPayload(len(payload)), payload)
		return p
	}
	lazy, eager := mk(), mk()
	settle := func() {
		if eager.Owes() != 0 {
			eager.Wire()
		}
	}
	sealed := false // the CRCs were made for the packet as it stands
	same := func(step int, what string, l, e []byte) {
		t.Helper()
		if !bytes.Equal(l, e) || lazy.ICRC != eager.ICRC || lazy.VCRC != eager.VCRC {
			t.Fatalf("step %d, %s: settled on read\n %x (%08x/%04x)\nsettled at once\n %x (%08x/%04x)",
				step, what, l, lazy.ICRC, lazy.VCRC, e, eager.ICRC, eager.VCRC)
		}
		if !sealed {
			return
		}
		if ok, err := VerifyVCRC(l); err != nil || !ok {
			t.Fatalf("step %d, %s: VCRC of a sealed packet does not verify", step, what)
		}
		if ok, err := VerifyICRC(l); lazy.BTH.AuthID == 0 && (err != nil || !ok) {
			t.Fatalf("step %d, %s: ICRC of a sealed packet does not verify", step, what)
		}
	}
	for step := 0; len(prog) > 0; step++ {
		op, arg := int(prog[0])%owedSteps, byte(0)
		if len(prog) > 1 {
			arg = prog[1]
		}
		prog = prog[min(2, len(prog)):]
		switch op {
		case owedSeal, owedTag:
			for _, p := range []*packet.Packet{lazy, eager} {
				if op == owedTag {
					p.InvalidateWire() // settle before writing a CRC field
					if p.BTH.AuthID == 0 {
						p.BTH.AuthID, p.ICRC = 1, 0x01010101*uint32(arg)
					} else {
						p.BTH.AuthID = 0
					}
				}
				if err := Seal(p); err != nil {
					t.Fatal(err)
				}
			}
			sealed = true
		case owedPatch:
			// A transit switch's reseal (sm.SwitchAgent.reseal): the
			// edit is patched into an image that owes its CRCs, and
			// anything PatchPayload refuses — every settled copy among
			// them — is edited and sealed whole.
			n := len(lazy.Payload)
			off := 0
			if n > 0 {
				off = int(arg) % n
			}
			edit := bytes.Repeat([]byte{arg ^ 0x5A}, min(int(arg)%4, n-off))
			for _, p := range []*packet.Packet{lazy, eager} {
				owed := p.Owes()&packet.OwedICRC != 0 && p.ImageInPlace()
				if patched := PatchPayload(p, off, edit); patched != owed {
					t.Fatalf("step %d: PatchPayload(%d, %d B) = %v on an image owing %v", step, off, len(edit), patched, p.Owes())
				} else if !patched {
					copy(p.Payload[off:], edit)
					if err := Seal(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			sealed = true
		case owedFECN:
			for _, p := range []*packet.Packet{lazy, eager} {
				if p.BTH.FECN {
					continue
				}
				p.BTH.FECN = true
				off := packet.LRHSize + 4
				if p.GRH != nil {
					off += packet.GRHSize
				}
				p.Image()[off] |= packet.BTHFECNBit
				PatchVCRC(p)
			}
		case owedRestamp:
			// The stamp keeps a sealed packet's CRCs valid; a tag in
			// the ICRC field is never owed, or settling would lose it.
			for _, p := range []*packet.Packet{lazy, eager} {
				p.Restamp(arg&0xF, packet.LID(arg>>4))
				if p.BTH.AuthID != 0 && p.Owes()&packet.OwedICRC != 0 {
					t.Fatalf("step %d: Restamp of a tagged packet owes its ICRC", step)
				}
			}
		case owedReadWire:
			same(step, "Wire", lazy.Wire(), eager.Wire())
		case owedReadMarshal:
			same(step, "Marshal", lazy.Marshal(), eager.Marshal())
		case owedReadClone:
			lazy, eager = lazy.Clone(), eager.Clone()
			same(step, "Clone", lazy.Wire(), eager.Wire())
		case owedReadImage:
			l, e := lazy.Image(), eager.Image()
			if !bytes.Equal(l[:len(l)-trailerSize], e[:len(e)-trailerSize]) {
				t.Fatalf("step %d: the image before the trailer differs\n %x\n %x", step, l, e)
			}
		case owedTagUnread:
			// Settling an owed ICRC writes the ICRC field, so a tag
			// written over it first would be lost: Seal refuses that.
			tag := 0x01010101 * uint32(arg)
			for _, p := range []*packet.Packet{lazy, eager} {
				owesICRC := p.Owes()&packet.OwedICRC != 0
				p.BTH.AuthID, p.ICRC = 1, tag
				if panicked := sealPanics(p); panicked != owesICRC {
					t.Fatalf("step %d: Seal of a tag over an image owing %v panicked: %v", step, p.Owes(), panicked)
				} else if panicked {
					p.InvalidateWire()
					p.ICRC = tag
					if err := Seal(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			sealed = true
		}
		settle()
	}
	same(-1, "Wire at the end", lazy.Wire(), eager.Wire())
}

// sealPanics seals p and reports whether Seal panicked; a Seal that
// returns seals p.
func sealPanics(p *packet.Packet) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	if err := Seal(p); err != nil {
		panic(err)
	}
	return false
}

// TestSealOnReadMatchesEager runs the programs the simulator's paths
// make — a send read by a bit-error strike, a DR-SMP patched at every
// transit hop, a signed send marked with FECN, an RC retransmission's
// clone, a send's LRH stamp on a tagged or untagged packet — and a tag
// written without invalidating, under every header shape.
func TestSealOnReadMatchesEager(t *testing.T) {
	programs := [][]byte{
		{owedSeal, 0, owedReadMarshal, 0},
		{owedSeal, 0, owedSeal, 0, owedFECN, 0, owedSeal, 0, owedReadWire, 0},
		{owedSeal, 0, owedFECN, 0, owedTag, 3, owedSeal, 0, owedTag, 4, owedReadMarshal, 0},
		{owedSeal, 0, owedPatch, 5, owedPatch, 6, owedPatch, 7, owedReadWire, 0},
		{owedSeal, 0, owedReadWire, 0, owedPatch, 5, owedFECN, 0, owedPatch, 9, owedReadImage, 0},
		{owedTag, 0xA5, owedFECN, 0, owedReadImage, 0, owedReadWire, 0},
		{owedTag, 0xA5, owedTag, 0, owedPatch, 1, owedReadClone, 0, owedPatch, 2, owedSeal, 0},
		{owedSeal, 0, owedRestamp, 15, owedReadWire, 0, owedSeal, 0, owedFECN, 0, owedPatch, 3},
		{owedSeal, 0, owedFECN, 0, owedPatch, 3, owedRestamp, 0x41, owedPatch, 4, owedReadMarshal, 0},
		{owedSeal, 0, owedTagUnread, 0x3C, owedReadWire, 0, owedTagUnread, 0x4B, owedFECN, 0, owedReadMarshal, 0},
		{owedSeal, 0, owedReadWire, 0, owedTagUnread, 0x3C, owedTag, 0, owedPatch, 2, owedReadWire, 0},
		{owedTag, 0x4A, owedRestamp, 0x52, owedReadWire, 0, owedRestamp, 0x43, owedFECN, 0, owedReadMarshal, 0},
		{owedSeal, 0, owedRestamp, 0x30, owedPatch, 1, owedReadWire, 0, owedRestamp, 0x47, owedReadClone, 0},
		{owedReadImage, 0, owedRestamp, 0x30, owedPatch, 0, owedReadWire, 0}, // a new SLID on a never-sealed image
	}
	for shape := range headerShapes {
		for _, grh := range []bool{false, true} {
			for _, n := range []int{0, 1, 68, packet.MTU} {
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = byte(i*13 + n)
				}
				for _, prog := range programs {
					runOwed(t, shape, grh, payload, prog)
				}
			}
		}
	}
}

// FuzzSealOnRead runs runOwed on arbitrary header shapes, payloads and
// programs.
func FuzzSealOnRead(f *testing.F) {
	smp := make([]byte, 68)
	smp[0], smp[4] = 0xD2, 2
	f.Add(uint8(0), false, smp, []byte{owedSeal, 0, owedPatch, 5, owedPatch, 6, owedReadWire, 0})
	f.Add(uint8(1), true, make([]byte, packet.MTU), []byte{owedTag, 7, owedFECN, 0, owedReadClone, 0, owedPatch, 9})
	f.Add(uint8(2), false, []byte("payload"), []byte{owedSeal, 0, owedRestamp, 2, owedReadMarshal, 0, owedSeal, 0})
	f.Add(uint8(5), false, []byte{}, []byte{owedSeal, 0, owedFECN, 0, owedReadImage, 0})
	f.Add(uint8(3), true, []byte("payload"), []byte{owedSeal, 0, owedTagUnread, 9, owedReadClone, 0, owedTagUnread, 1})
	f.Fuzz(func(t *testing.T, shape uint8, grh bool, payload []byte, prog []byte) {
		if len(payload) > packet.MTU {
			payload = payload[:packet.MTU]
		}
		if len(prog) > 64 {
			prog = prog[:64]
		}
		runOwed(t, int(shape)%len(headerShapes), grh, payload, prog)
	})
}
