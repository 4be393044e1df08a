package icrc

import (
	"bytes"
	"testing"

	"ibasec/internal/packet"
)

// How patchCase prepares the packet before the edit: sealed with its own
// image, or in one of the states PatchPayload must refuse.
const (
	patchSealed      = iota
	patchTagged      // sealed with a tag in the ICRC field (AuthID ≠ 0)
	patchInvalidated // its image marked stale
	patchLiteral     // sealed, but its payload is not a window into the image
	patchRead        // sealed, and its trailer read: the CRCs are computed
	patchStates
)

// patchCase builds a packet of the given header shape and payload, brings
// it to state, applies PatchPayload(off, edit) and holds the outcome to
// the contract: a sealed packet whose trailer is unread and an edit inside
// its payload are patched into exactly what Seal makes of the edited
// packet, image and CRC fields; anything else is refused with the packet
// left as a twin brought to the same state.
func patchCase(t *testing.T, shape int, grh bool, payload []byte, off int, edit []byte, state int) {
	t.Helper()
	mk := func() *packet.Packet {
		p := headerShapes[shape].mk()
		if grh && p.GRH == nil {
			p.GRH = &packet.GRH{TClass: 1, FlowLabel: 2, HopLmt: 64}
		}
		p.LRH = packet.LRH{VL: 15, DLID: 0xFFFF, SLID: 4}
		p.BTH.PKey, p.BTH.DestQP, p.BTH.PSN = 0xFFFF, 1, 77
		return p
	}
	prepare := func() *packet.Packet {
		p := mk()
		copy(p.AllocPayload(len(payload)), payload)
		switch state {
		case patchTagged:
			p.BTH.AuthID, p.ICRC = 1, 0xA5A5A5A5
		case patchLiteral:
			p.Payload = append([]byte(nil), payload...)
		}
		if err := Seal(p); err != nil {
			t.Fatal(err)
		}
		switch state {
		case patchInvalidated:
			p.InvalidateWire()
		case patchRead:
			p.Wire()
		}
		return p
	}
	p, twin := prepare(), prepare()

	// An empty payload is no window into the image, so there is nothing
	// to edit in place.
	legal := len(payload) > 0 && off >= 0 && off+len(edit) <= len(payload)
	want := legal && state == patchSealed
	if got := PatchPayload(p, off, edit); got != want {
		t.Fatalf("PatchPayload(off %d, %d B) on a %d B payload in state %d = %v, want %v", off, len(edit), len(payload), state, got, want)
	}
	if !want {
		if p.Owes() != twin.Owes() || !bytes.Equal(p.Marshal(), twin.Marshal()) || p.ICRC != twin.ICRC || p.VCRC != twin.VCRC {
			t.Fatalf("a refused edit (off %d, %d B, state %d) changed the packet", off, len(edit), state)
		}
		return
	}
	edited := append([]byte(nil), payload...)
	copy(edited[off:], edit)
	fresh := mk()
	fresh.Payload = edited
	if err := Seal(fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Wire(), fresh.Wire()) || p.ICRC != fresh.ICRC || p.VCRC != fresh.VCRC {
		t.Fatalf("%s, GRH %v, %d B payload, edit %d B at %d: patched image\n %x\n(%08x/%04x), Seal of the edited packet\n %x\n(%08x/%04x)",
			headerShapes[shape].name, grh, len(payload), len(edit), off, p.Wire(), p.ICRC, p.VCRC, fresh.Wire(), fresh.ICRC, fresh.VCRC)
	}
	checkSealed(t, p)
}

// PatchPayload equals a fresh Seal under every header shape, with and
// without a GRH, for payload lengths across the MTU and edits at the
// start, in the middle and at the end of the payload, from a single byte
// to 200; and it refuses what the contract excludes.
func TestPatchPayloadMatchesSeal(t *testing.T) {
	for shape := range headerShapes {
		for _, grh := range []bool{false, true} {
			for _, n := range []int{0, 1, 3, 52, 68, 255, 256, packet.MTU} {
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = byte(i*13 + n)
				}
				for _, w := range []int{0, 1, 2, 33, 64, 65, 200} {
					edit := bytes.Repeat([]byte{0x5A}, w)
					for _, off := range []int{0, 5, n / 2, n - w} {
						for state := 0; state < patchStates; state++ {
							patchCase(t, shape, grh, payload, off, edit, state)
						}
					}
					patchCase(t, shape, grh, payload, -1, edit, patchSealed)    // into the headers
					patchCase(t, shape, grh, payload, n-w+1, edit, patchSealed) // into the pad and trailer
					patchCase(t, shape, grh, payload, -w-28, edit, patchSealed) // wholly in the headers
				}
			}
		}
	}
}

// FuzzPatchPayload runs patchCase on arbitrary header shapes, payloads,
// offsets, edits and packet states.
func FuzzPatchPayload(f *testing.F) {
	smp := make([]byte, 68)
	smp[0], smp[4] = 0xD2, 2
	f.Add(uint8(0), false, smp, int16(5), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3}, uint8(patchSealed))
	f.Add(uint8(0), false, smp, int16(5), []byte{0}, uint8(patchSealed))
	f.Add(uint8(1), true, make([]byte, packet.MTU), int16(7), []byte("edit"), uint8(patchSealed))
	f.Add(uint8(2), false, []byte("payload"), int16(0), []byte("PAY"), uint8(patchSealed))
	f.Add(uint8(3), true, []byte("payload"), int16(4), []byte("LOAD"), uint8(patchSealed)) // runs past the payload
	f.Add(uint8(4), false, []byte("payload"), int16(-2), []byte("xx"), uint8(patchSealed)) // reaches into the headers
	f.Add(uint8(5), false, []byte{}, int16(0), []byte{}, uint8(patchSealed))
	f.Add(uint8(0), false, smp, int16(5), []byte{9}, uint8(patchTagged))
	f.Add(uint8(0), true, smp, int16(5), []byte{9}, uint8(patchInvalidated))
	f.Add(uint8(0), false, smp, int16(5), []byte{9}, uint8(patchLiteral))
	f.Add(uint8(0), false, smp, int16(5), []byte{9}, uint8(patchRead))
	f.Fuzz(func(t *testing.T, shape uint8, grh bool, payload []byte, off int16, edit []byte, state uint8) {
		if len(payload) > packet.MTU {
			payload = payload[:packet.MTU]
		}
		patchCase(t, int(shape)%len(headerShapes), grh, payload, int(off), edit, int(state)%patchStates)
	})
}
