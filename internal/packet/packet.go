package packet

import (
	"errors"
	"fmt"
)

// MTU is the path MTU used throughout the paper's testbed (Table 1).
const MTU = 1024

// Packet is a fully parsed IBA data packet. Optional headers are nil when
// absent. ICRC holds either the Invariant CRC or, when BTH.AuthID != 0,
// the 32-bit authentication tag (the paper's Fig. 4(b)).
type Packet struct {
	LRH     LRH
	GRH     *GRH // present iff LRH.LNH == LNHIBAGlobal
	BTH     BTH
	DETH    *DETH
	RETH    *RETH
	AETH    *AETH
	Imm     uint32 // valid iff BTH.OpCode.HasImm()
	Payload []byte
	ICRC    uint32 // invariant CRC or authentication tag
	VCRC    uint16

	// wireOK says img is the packet's marshalled image, so a packet
	// crossing many hops is serialized once, not once per hop. Wire sets
	// it; it must be cleared (InvalidateWire) whenever a header or
	// payload field changes afterwards. It sits in VCRC's padding, which
	// keeps a send's header block (packet, DETH, delivery: 240 bytes)
	// inside the 256-byte allocation class.
	wireOK bool
	// img is the packet's wire image, allocated by AllocPayload — Payload
	// is then a window into it — or by Wire. It outlives InvalidateWire
	// so that Wire can rebuild headers and trailers around an in-place
	// payload without copying it.
	img []byte
}

// Errors returned by Unmarshal.
var (
	ErrTooShort  = errors.New("packet: buffer too short")
	ErrBadLength = errors.New("packet: LRH PktLen inconsistent with buffer")
	ErrPayload   = errors.New("packet: payload exceeds MTU")
)

// HeaderSize returns the number of bytes of headers (LRH through the last
// extended transport header, including immediate data, excluding payload
// and CRCs) for the packet's opcode and LNH.
func (p *Packet) HeaderSize() int {
	n := LRHSize + BTHSize
	if p.GRH != nil {
		n += GRHSize
	}
	op := p.BTH.OpCode
	if op.HasDETH() {
		n += DETHSize
	}
	if op.HasRETH() {
		n += RETHSize
	}
	if op.HasAETH() {
		n += AETHSize
	}
	if op.HasImm() {
		n += ImmSize
	}
	return n
}

// WireSize returns the total on-the-wire size in bytes, including payload,
// pad bytes, ICRC and VCRC.
func (p *Packet) WireSize() int {
	return p.HeaderSize() + len(p.Payload) + int(p.BTH.PadCnt) + ICRCSize + VCRCSize
}

// Finalize fills the length-dependent fields (LRH.PktLen, BTH.PadCnt,
// GRH.PayLen if present, LRH.LNH) from the packet's structure. It must be
// called before Marshal after any change to headers or payload.
func (p *Packet) Finalize() error {
	if len(p.Payload) > MTU {
		return fmt.Errorf("%w: %d bytes", ErrPayload, len(p.Payload))
	}
	p.BTH.PadCnt = uint8(payloadPad(len(p.Payload)))
	if p.GRH != nil {
		p.LRH.LNH = LNHIBAGlobal
		p.GRH.IPVer = 6
		p.GRH.NxtHdr = 0x1B
		// GRH PayLen counts everything after the GRH, excluding VCRC.
		after := p.HeaderSize() - LRHSize - GRHSize + len(p.Payload) + int(p.BTH.PadCnt) + ICRCSize
		p.GRH.PayLen = uint16(after)
	} else {
		p.LRH.LNH = LNHIBALocal
	}
	// PktLen is in 4-byte words and covers LRH through ICRC (IBA 7.7.5).
	words := (p.HeaderSize() + len(p.Payload) + int(p.BTH.PadCnt) + ICRCSize) / 4
	if words > 0x7FF {
		return fmt.Errorf("packet: PktLen %d words exceeds 11 bits", words)
	}
	p.LRH.PktLen = uint16(words)
	return nil
}

// payloadPad returns the number of zero bytes that pad an n-byte payload
// to a 4-byte boundary (BTH.PadCnt).
func payloadPad(n int) int { return (4 - n%4) % 4 }

// AllocPayload sizes the packet's wire image for an n-byte payload under
// the headers already set (the opcode and GRH decide the payload offset;
// pad bytes and both CRC trailers are included) and returns Payload as an
// n-byte window into it. The caller fills the window; Wire then writes
// headers and trailers around it, so the message is never copied. An
// image kept across Reset is reused when large enough: the window is
// zeroed and Wire overwrites every other byte, so the sealed image is the
// one a fresh buffer would hold. The window's capacity stops at its
// length: an append reallocates instead of running into the trailer.
// Replacing or resizing Payload afterwards is legal — Wire falls back to a
// fresh image.
func (p *Packet) AllocPayload(n int) []byte {
	if n < 0 {
		panic(fmt.Sprintf("packet: AllocPayload: negative size %d", n))
	}
	hs := p.HeaderSize()
	p.BTH.PadCnt = uint8(payloadPad(n))
	size := hs + n + int(p.BTH.PadCnt) + ICRCSize + VCRCSize // ImageSize(n)
	if cap(p.img) >= size {
		p.img = p.img[:size]
		clear(p.img[hs : hs+n])
	} else {
		p.img = make([]byte, size)
	}
	p.wireOK = false
	p.Payload = p.img[hs : hs+n : hs+n]
	return p.Payload
}

// ImageSize returns the size of the wire image AllocPayload(n) makes
// under the headers already set.
func (p *Packet) ImageSize(n int) int {
	return p.HeaderSize() + n + payloadPad(n) + ICRCSize + VCRCSize
}

// ImageCap returns the capacity of the storage the packet holds for its
// wire image: an AllocPayload needing no more reuses it.
func (p *Packet) ImageCap() int { return cap(p.img) }

// ProvideImage hands the packet storage for its wire image, which the
// next AllocPayload uses when its capacity suffices — so a caller that
// carves images from a slab decides where they live. It invalidates the
// cached image.
func (p *Packet) ProvideImage(buf []byte) { p.img, p.wireOK = buf[:0], false }

// Reset returns the packet to its zero value but keeps the wire image's
// storage for the next AllocPayload (fabric.Params.NewMessage).
func (p *Packet) Reset() { *p = Packet{img: p.img[:0]} }

// Marshal serializes the packet into a fresh buffer the caller owns (the
// bit-error model and the attack suite tamper with the result). Call
// Finalize first; Marshal panics if the length fields are inconsistent
// with the structure.
func (p *Packet) Marshal() []byte {
	b := make([]byte, p.WireSize())
	p.marshalInto(b)
	return b
}

// marshalInto writes the packet into b, which must be WireSize bytes.
// The payload is not copied when it already sits at its place in b.
func (p *Packet) marshalInto(b []byte) {
	off := 0
	p.LRH.marshal(b[off : off+LRHSize])
	off += LRHSize
	if p.GRH != nil {
		p.GRH.marshal(b[off : off+GRHSize])
		off += GRHSize
	}
	p.BTH.marshal(b[off : off+BTHSize])
	off += BTHSize
	op := p.BTH.OpCode
	if op.HasDETH() {
		if p.DETH == nil {
			panic(fmt.Sprintf("packet: opcode %v requires DETH", op))
		}
		p.DETH.marshal(b[off : off+DETHSize])
		off += DETHSize
	}
	if op.HasRETH() {
		if p.RETH == nil {
			panic(fmt.Sprintf("packet: opcode %v requires RETH", op))
		}
		p.RETH.marshal(b[off : off+RETHSize])
		off += RETHSize
	}
	if op.HasAETH() {
		if p.AETH == nil {
			panic(fmt.Sprintf("packet: opcode %v requires AETH", op))
		}
		p.AETH.marshal(b[off : off+AETHSize])
		off += AETHSize
	}
	if op.HasImm() {
		b[off] = byte(p.Imm >> 24)
		b[off+1] = byte(p.Imm >> 16)
		b[off+2] = byte(p.Imm >> 8)
		b[off+3] = byte(p.Imm)
		off += ImmSize
	}
	if len(p.Payload) > 0 && &p.Payload[0] != &b[off] {
		copy(b[off:], p.Payload)
	}
	off += len(p.Payload)
	for end := off + int(p.BTH.PadCnt); off < end; off++ {
		b[off] = 0
	}
	b[off] = byte(p.ICRC >> 24)
	b[off+1] = byte(p.ICRC >> 16)
	b[off+2] = byte(p.ICRC >> 8)
	b[off+3] = byte(p.ICRC)
	off += ICRCSize
	b[off] = byte(p.VCRC >> 8)
	b[off+1] = byte(p.VCRC)
}

// Wire returns the packet's marshalled image, serializing it on first
// use and returning the cached bytes thereafter. A packet whose Payload
// is still the window AllocPayload returned is serialized in place —
// headers and trailers are written around the payload — and any other
// packet into a fresh buffer (or, having no payload to preserve, into the
// storage Reset kept). The returned slice is the packet's own
// image: only the seal path and a switch marking a variant field may
// write it (use Marshal for a private copy). Any mutation of the packet
// after Wire must be followed by InvalidateWire, or the cache will
// misrepresent the packet.
func (p *Packet) Wire() []byte {
	if !p.wireOK {
		if size := p.WireSize(); !p.payloadInPlace() {
			if len(p.Payload) > 0 || cap(p.img) < size {
				p.img = make([]byte, size)
			}
			p.img = p.img[:size]
		}
		p.marshalInto(p.img)
		p.wireOK = true
	}
	return p.img
}

// payloadInPlace reports whether Payload still sits where img holds the
// payload under the packet's current header shape — the window
// AllocPayload handed out, neither replaced nor moved. An empty payload
// has no byte to compare and counts as not in place.
func (p *Packet) payloadInPlace() bool {
	return len(p.Payload) > 0 && len(p.img) == p.WireSize() &&
		&p.Payload[0] == &p.img[p.HeaderSize()]
}

// InvalidateWire marks the cached wire image stale; the next Wire call
// re-serializes. Call it after mutating any field of an already-cached
// packet.
func (p *Packet) InvalidateWire() { p.wireOK = false }

// ImageInPlace reports whether the packet owns a current wire image with
// Payload a window into it: Wire would return the cached bytes without
// serializing, and a write to Payload is a write to that image.
func (p *Packet) ImageInPlace() bool { return p.wireOK && p.payloadInPlace() }

// Unmarshal parses a wire buffer into p, replacing its contents.
func (p *Packet) Unmarshal(b []byte) error {
	*p = Packet{}
	if len(b) < LRHSize+BTHSize+ICRCSize+VCRCSize {
		return ErrTooShort
	}
	off := 0
	p.LRH.unmarshal(b[off : off+LRHSize])
	off += LRHSize
	if int(p.LRH.PktLen)*4+VCRCSize != len(b) {
		return fmt.Errorf("%w: PktLen %d words, buffer %d bytes", ErrBadLength, p.LRH.PktLen, len(b))
	}
	if p.LRH.LNH == LNHIBAGlobal {
		if len(b) < off+GRHSize+BTHSize+ICRCSize+VCRCSize {
			return ErrTooShort
		}
		p.GRH = new(GRH)
		p.GRH.unmarshal(b[off : off+GRHSize])
		off += GRHSize
	}
	p.BTH.unmarshal(b[off : off+BTHSize])
	off += BTHSize
	op := p.BTH.OpCode
	if op.HasDETH() {
		if len(b) < off+DETHSize {
			return ErrTooShort
		}
		p.DETH = new(DETH)
		p.DETH.unmarshal(b[off : off+DETHSize])
		off += DETHSize
	}
	if op.HasRETH() {
		if len(b) < off+RETHSize {
			return ErrTooShort
		}
		p.RETH = new(RETH)
		p.RETH.unmarshal(b[off : off+RETHSize])
		off += RETHSize
	}
	if op.HasAETH() {
		if len(b) < off+AETHSize {
			return ErrTooShort
		}
		p.AETH = new(AETH)
		p.AETH.unmarshal(b[off : off+AETHSize])
		off += AETHSize
	}
	if op.HasImm() {
		if len(b) < off+ImmSize {
			return ErrTooShort
		}
		p.Imm = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		off += ImmSize
	}
	payEnd := len(b) - VCRCSize - ICRCSize - int(p.BTH.PadCnt)
	if payEnd < off {
		return ErrTooShort
	}
	if payEnd > off {
		p.Payload = append([]byte(nil), b[off:payEnd]...)
	}
	off = len(b) - VCRCSize - ICRCSize
	p.ICRC = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
	off += ICRCSize
	p.VCRC = uint16(b[off])<<8 | uint16(b[off+1])
	return nil
}

// Clone returns a deep copy of the packet. The wire image is not
// carried over: the clone exists to be mutated, so it serializes into a
// buffer of its own on first use instead of aliasing the original's.
func (p *Packet) Clone() *Packet {
	q := *p
	q.img, q.wireOK = nil, false
	if p.GRH != nil {
		g := *p.GRH
		q.GRH = &g
	}
	if p.DETH != nil {
		d := *p.DETH
		q.DETH = &d
	}
	if p.RETH != nil {
		r := *p.RETH
		q.RETH = &r
	}
	if p.AETH != nil {
		a := *p.AETH
		q.AETH = &a
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// String returns a one-line summary for logs and tests.
func (p *Packet) String() string {
	s := fmt.Sprintf("%v SLID=%d DLID=%d VL=%d PKey=%#04x QP=%d PSN=%d len=%dB",
		p.BTH.OpCode, p.LRH.SLID, p.LRH.DLID, p.LRH.VL, uint16(p.BTH.PKey),
		p.BTH.DestQP, p.BTH.PSN, p.WireSize())
	if p.BTH.AuthID != 0 {
		s += fmt.Sprintf(" auth=%d", p.BTH.AuthID)
	}
	return s
}
