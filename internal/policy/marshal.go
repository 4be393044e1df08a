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
//	    u16 nFull  pairs (u16 first, u16 last),
//	    u16 nLimited pairs
//	u16 nPinned; each: i16 switch (-1 = all), u16 base
//	u16 nAlt;    each: u16 switch, u16 src
//	u16 nModes;  each: u16 switch, u8 mode

// Magic opens every marshalled document and names the policy plane's
// sync state on its SM (sm.SetSyncState).
const Magic = "IBPL"

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
		u16(uint16(len(r.Limited)))
		for _, pr := range r.Limited {
			u16(uint16(pr.First))
			u16(uint16(pr.Last))
		}
	}
	u16(uint16(len(doc.Pinned)))
	for _, p := range doc.Pinned {
		u16(uint16(int16(p.Switch)))
		u16(p.Base)
	}
	u16(uint16(len(doc.AltSources)))
	for _, a := range doc.AltSources {
		u16(uint16(a.Switch))
		u16(a.Src)
	}
	u16(uint16(len(doc.SwitchModes)))
	for _, m := range doc.SwitchModes {
		u16(uint16(m.Switch))
		out = append(out, byte(m.Mode))
	}
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
	u8 := func() (byte, bool) {
		b, ok := take(1)
		if !ok {
			return 0, false
		}
		return b[0], true
	}

	magic, ok := take(len(Magic))
	if !ok || string(magic) != Magic {
		return nil, fmt.Errorf("policy: bad document magic")
	}
	doc := &Document{}
	ver, ok1 := u16()
	mode, ok2 := u8()
	if !ok1 || !ok2 {
		return nil, errTruncated
	}
	doc.Version = int(ver)
	doc.Mode = enforce.Mode(mode)

	nRules, ok := u16()
	if !ok {
		return nil, errTruncated
	}
	readRanges := func() ([]PortRange, bool) {
		n, ok := u16()
		if !ok {
			return nil, false
		}
		var rs []PortRange
		for i := 0; i < int(n); i++ {
			f, ok1 := u16()
			l, ok2 := u16()
			if !ok1 || !ok2 {
				return nil, false
			}
			rs = append(rs, PortRange{First: int(f), Last: int(l)})
		}
		return rs, true
	}
	for i := 0; i < int(nRules); i++ {
		nl, ok := u8()
		if !ok {
			return nil, errTruncated
		}
		name, ok := take(int(nl))
		if !ok {
			return nil, errTruncated
		}
		base, ok := u16()
		if !ok {
			return nil, errTruncated
		}
		full, ok1 := readRanges()
		lim, ok2 := readRanges()
		if !ok1 || !ok2 {
			return nil, errTruncated
		}
		doc.Rules = append(doc.Rules, Rule{
			Name: string(name), Base: base, Full: full, Limited: lim,
		})
	}

	nPinned, ok := u16()
	if !ok {
		return nil, errTruncated
	}
	for i := 0; i < int(nPinned); i++ {
		sw, ok1 := u16()
		base, ok2 := u16()
		if !ok1 || !ok2 {
			return nil, errTruncated
		}
		doc.Pinned = append(doc.Pinned, PinnedInvalid{Switch: int(int16(sw)), Base: base})
	}
	nAlt, ok := u16()
	if !ok {
		return nil, errTruncated
	}
	for i := 0; i < int(nAlt); i++ {
		sw, ok1 := u16()
		src, ok2 := u16()
		if !ok1 || !ok2 {
			return nil, errTruncated
		}
		doc.AltSources = append(doc.AltSources, AltSourceReg{Switch: int(sw), Src: src})
	}
	nModes, ok := u16()
	if !ok {
		return nil, errTruncated
	}
	for i := 0; i < int(nModes); i++ {
		sw, ok1 := u16()
		m, ok2 := u8()
		if !ok1 || !ok2 {
			return nil, errTruncated
		}
		doc.SwitchModes = append(doc.SwitchModes, SwitchMode{Switch: int(sw), Mode: enforce.Mode(m)})
	}
	if off != len(blob) {
		return nil, fmt.Errorf("policy: %d trailing bytes after document", len(blob)-off)
	}
	return doc, nil
}
