package policy

import (
	"encoding/binary"
	"fmt"

	"ibasec/internal/enforce"
)

// Deterministic binary encoding of a policy document. The marshalled
// blob rides the subnet manager's HA state-sync MADs so a promoted
// standby inherits the exact intent the dead master was auditing
// against; byte-for-byte determinism keeps the state-sync digest stable
// across identical documents.
//
// Layout (big-endian):
//
//	"IBPL" u16 version, u8 mode
//	u16 nRules; each: u8 nameLen, name, u16 base,
//	    u16 nFull pairs (u16 first, u16 last),
//	    u16 0 (limited members)
//	u16 nPinned; each: i16 -1 (switch), u16 base
//	u16 0 (alternate-source registrations)
//	u16 0 (per-switch mode overrides)
//
// The zero counts and the -1 switch are frozen fields of features the
// document no longer has (limited members, per-switch pins, alternate
// sources, per-switch modes). They stay on the wire, so the state-sync
// MADs keep their bytes, until ROADMAP item 19 redoes the MAD layout;
// Unmarshal refuses any other value.

// Magic opens every marshalled document and names the policy plane's
// sync state on its SM (sm.SetSyncState).
const Magic = "IBPL"

// pinAllSwitches is the frozen switch field of every pin: -1, every
// switch.
const pinAllSwitches = 0xFFFF

// Marshal encodes doc deterministically.
func Marshal(doc *Document) []byte {
	out := []byte(Magic)
	u16 := func(v uint16) { out = binary.BigEndian.AppendUint16(out, v) }
	u16(uint16(doc.Version))
	out = append(out, byte(doc.Mode))
	u16(uint16(len(doc.Rules)))
	for _, r := range doc.Rules {
		out = append(out, byte(len(r.Name)))
		out = append(out, r.Name...)
		u16(r.Base)
		u16(uint16(len(r.Full)))
		for _, pr := range r.Full {
			u16(uint16(pr.First))
			u16(uint16(pr.Last))
		}
		u16(0)
	}
	u16(uint16(len(doc.Pinned)))
	for _, b := range doc.Pinned {
		u16(pinAllSwitches)
		u16(b)
	}
	u16(0)
	u16(0)
	return out
}

// errTruncated is the uniform decode failure for a short blob.
var errTruncated = fmt.Errorf("policy: truncated document blob")

// Unmarshal decodes a blob produced by Marshal. The decoder bounds-checks
// every read — the blob crosses the simulated fabric in state-sync MADs,
// and a hostile or corrupted MAD must not panic the standby.
func Unmarshal(blob []byte) (*Document, error) {
	off := 0
	take := func(n int) ([]byte, bool) {
		if off+n > len(blob) {
			return nil, false
		}
		b := blob[off : off+n]
		off += n
		return b, true
	}
	u16 := func() (uint16, bool) {
		b, ok := take(2)
		if !ok {
			return 0, false
		}
		return binary.BigEndian.Uint16(b), true
	}
	// frozen reads one of the frozen fields, which must hold want.
	frozen := func(what string, want uint16) error {
		v, ok := u16()
		if !ok {
			return errTruncated
		}
		if v != want {
			return fmt.Errorf("policy: %s %#x, want %#x", what, v, want)
		}
		return nil
	}

	magic, ok := take(len(Magic))
	if !ok || string(magic) != Magic {
		return nil, fmt.Errorf("policy: bad document magic")
	}
	ver, ok1 := u16()
	mode, ok2 := take(1)
	nRules, ok3 := u16()
	if !ok1 || !ok2 || !ok3 {
		return nil, errTruncated
	}
	doc := &Document{Version: int(ver), Mode: enforce.Mode(mode[0])}
	for i := 0; i < int(nRules); i++ {
		nl, ok := take(1)
		if !ok {
			return nil, errTruncated
		}
		name, ok1 := take(int(nl[0]))
		base, ok2 := u16()
		n, ok3 := u16()
		if !ok1 || !ok2 || !ok3 {
			return nil, errTruncated
		}
		r := Rule{Name: string(name), Base: base}
		for j := 0; j < int(n); j++ {
			f, ok1 := u16()
			l, ok2 := u16()
			if !ok1 || !ok2 {
				return nil, errTruncated
			}
			r.Full = append(r.Full, PortRange{First: int(f), Last: int(l)})
		}
		if err := frozen("limited-member count", 0); err != nil {
			return nil, err
		}
		doc.Rules = append(doc.Rules, r)
	}

	nPinned, ok := u16()
	if !ok {
		return nil, errTruncated
	}
	for i := 0; i < int(nPinned); i++ {
		if err := frozen("pin switch", pinAllSwitches); err != nil {
			return nil, err
		}
		base, ok := u16()
		if !ok {
			return nil, errTruncated
		}
		doc.Pinned = append(doc.Pinned, base)
	}
	if err := frozen("alternate-source count", 0); err != nil {
		return nil, err
	}
	if err := frozen("switch-mode count", 0); err != nil {
		return nil, err
	}
	if off != len(blob) {
		return nil, fmt.Errorf("policy: %d trailing bytes after document", len(blob)-off)
	}
	return doc, nil
}
