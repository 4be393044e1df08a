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
//
// A sealed packet may owe its trailer CRCs (see Owe): the seal path
// leaves them to be computed when something first reads the trailer, so
// ICRC and VCRC are current once the image has been read through Wire,
// Marshal or Clone, or the packet has been invalidated.
type Packet struct {
	LRH LRH
	// Imm sits in LRH's padding, which keeps a message block (the
	// packet, its delivery and its extended headers) at 280 bytes with
	// room for the block's strike pointer.
	Imm     uint32 // valid iff BTH.OpCode.HasImm()
	GRH     *GRH   // present iff LRH.LNH == LNHIBAGlobal
	BTH     BTH
	DETH    *DETH
	RETH    *RETH
	AETH    *AETH
	Payload []byte
	// ICRC is the invariant CRC or the authentication tag, and VCRC the
	// variant CRC. A CRC the image owes is stale here until the image
	// is read (Wire) and the CRC computed into both places; write the
	// fields only after that, or after InvalidateWire.
	ICRC uint32
	VCRC uint16

	// wireOK says img is the packet's marshalled image, so a packet
	// crossing many hops is serialized once, not once per hop. Wire sets
	// it; it must be cleared (InvalidateWire) whenever a header or
	// payload field changes afterwards. It and owed sit in VCRC's
	// padding, which keeps a send's header block (packet, DETH,
	// delivery: 240 bytes) inside the 256-byte allocation class.
	wireOK bool
	// owed names the trailer CRCs the cached image lacks (Owe); only
	// set while wireOK.
	owed Owed
	// img is the packet's wire image, allocated by AllocPayload — Payload
	// is then a window into it — or by Wire. It outlives InvalidateWire
	// so that Wire can rebuild headers and trailers around an in-place
	// payload without copying it.
	img []byte
}

// Owed is a set of trailer CRCs a sealed image has not yet computed.
type Owed uint8

// The trailer CRCs an image can owe. The VCRC covers the ICRC, so an
// image that owes its ICRC owes its VCRC too.
const (
	OwedVCRC Owed = 1 << iota
	OwedICRC
)

// settleCRCs computes over a marshalled image the ICRC when o names it
// and the VCRC, which every owing image owes, writes them into its
// trailer and returns them (an ICRC not owed returns 0). The icrc package
// installs it (SetSettle): it holds the CRC kernels, and packet cannot
// import it.
var settleCRCs func(img []byte, o Owed) (icrc uint32, vcrc uint16)

// SetSettle installs the function that computes owed trailer CRCs. The
// icrc package calls it once, from its init.
func SetSettle(f func(img []byte, o Owed) (icrc uint32, vcrc uint16)) { settleCRCs = f }

// Owe records that the packet's image, serialized now if it is not
// current, lacks the trailer CRCs in o — and the VCRC, which covers the
// whole image — which the next read of the trailer (Wire, Marshal,
// Clone, InvalidateWire) computes. It is the seal path's deferral:
// icrc.PatchVCRC calls it instead of running the CRC kernel on every
// variant-field mark and signed send.
func (p *Packet) Owe(o Owed) {
	p.Image()
	p.owed |= o | OwedVCRC
}

// Remarshal serializes the packet afresh and leaves the new image owing
// o: icrc.Seal's marshal. A CRC the old image owed and o names again is
// dropped uncomputed, since the new image owes it too; any other is
// settled first, because its field goes into the new image.
func (p *Packet) Remarshal(o Owed) {
	p.owed &^= o
	p.InvalidateWire()
	p.Owe(o)
}

// Restamp sets the LRH's VL and SLID, which an HCA stamps at send on a
// packet that may already be sealed. A current image takes the two
// fields in place, not serialized again, and owes the CRCs that cover
// them: its VCRC always, and its ICRC for a new SLID, unless the ICRC
// field holds an authentication tag (BTH.AuthID != 0), which the MAC
// computed and the seal never replaces. The VL is ICRC-variant. A new
// SLID on an image that did not already owe its ICRC has its CRCs
// computed at once instead. A packet with no current image writes the
// fields on its next serialization.
func (p *Packet) Restamp(vl uint8, slid LID) {
	if vl != p.LRH.VL || slid != p.LRH.SLID {
		p.restamp(vl, slid)
	}
}

// restamp is Restamp's work when a field changes, kept out of line so
// that the common send, which changes neither, costs two compares.
func (p *Packet) restamp(vl uint8, slid LID) {
	o := OwedVCRC
	if slid != p.LRH.SLID && p.BTH.AuthID == 0 {
		o |= OwedICRC
	}
	p.LRH.VL, p.LRH.SLID = vl, slid
	if !p.wireOK {
		return
	}
	p.img[0] = vl<<4 | p.img[0]&0x0F
	p.img[6], p.img[7] = byte(slid>>8), byte(slid)
	settleNow := o&OwedICRC != 0 && p.owed&OwedICRC == 0
	p.owed |= o
	if settleNow {
		// Only a seal leaves an image owing its ICRC, which
		// icrc.PatchPayload relies on, and this image's ICRC was
		// computed already or never sealed.
		p.settle()
	}
}

// Owes reports the trailer CRCs the packet's image still lacks.
func (p *Packet) Owes() Owed { return p.owed }

// settle computes the CRCs the image owes into its trailer and the ICRC
// and VCRC fields.
func (p *Packet) settle() {
	if p.owed == 0 {
		return
	}
	ic, vc := settleCRCs(p.img, p.owed)
	if p.owed&OwedICRC != 0 {
		p.ICRC = ic
	}
	p.VCRC = vc
	p.owed = 0
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
	n := p.BTH.OpCode.HeaderSize()
	if p.GRH != nil {
		n += GRHSize
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
	p.InvalidateWire()
	hs := p.HeaderSize()
	p.BTH.PadCnt = uint8(payloadPad(n))
	size := hs + n + int(p.BTH.PadCnt) + ICRCSize + VCRCSize // OpCode.ImageSize(n), plus any GRH
	if cap(p.img) >= size {
		p.img = p.img[:size]
		clear(p.img[hs : hs+n])
	} else {
		p.img = make([]byte, size)
	}
	p.Payload = p.img[hs : hs+n : hs+n]
	return p.Payload
}

// ImageSize returns the size of the wire image AllocPayload(n) makes for
// a packet of this opcode without a GRH: the size a message's block must
// hold before the message is built.
func (op OpCode) ImageSize(n int) int {
	return op.HeaderSize() + n + payloadPad(n) + ICRCSize + VCRCSize
}

// ImageCap returns the capacity of the storage the packet holds for its
// wire image: an AllocPayload needing no more reuses it.
func (p *Packet) ImageCap() int { return cap(p.img) }

// ProvideImage hands the packet storage for its wire image, which the
// next AllocPayload uses when its capacity suffices — so a caller that
// carves images from a slab decides where they live. It invalidates the
// cached image.
func (p *Packet) ProvideImage(buf []byte) {
	p.InvalidateWire()
	p.img = buf[:0]
}

// Reset returns the packet to its zero value but keeps the wire image's
// storage for the next AllocPayload (fabric.Params.NewMessage).
func (p *Packet) Reset() { *p = Packet{img: p.img[:0]} }

// Marshal serializes the packet into a fresh buffer the caller owns (the
// attack suite tampers with the result). Call Finalize first; Marshal
// panics if the length fields are inconsistent with the structure.
func (p *Packet) Marshal() []byte {
	b := make([]byte, p.WireSize())
	p.MarshalTo(b)
	return b
}

// MarshalTo is Marshal into b, which must be WireSize bytes and must not
// hold the packet's own image: the bit-error model serializes a packet
// into storage it keeps for the flip.
func (p *Packet) MarshalTo(b []byte) {
	p.settle()
	p.marshalInto(b)
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
// use and returning the cached bytes thereafter, with any trailer CRC the
// image owes (Owe) computed first: every byte is the one an eager seal
// would have written. A packet whose Payload is still the window
// AllocPayload returned is serialized in place — headers and trailers
// are written around the payload — and any other packet into a fresh
// buffer (or, having no payload to preserve, into the storage Reset
// kept). The returned slice is the packet's own image: only the seal
// path, a transit edit of the payload (icrc.PatchPayload) and a switch
// marking a variant field may write it (use Marshal for a private copy).
// Any mutation of the packet after Wire must be followed by
// InvalidateWire, or the cache will misrepresent the packet.
func (p *Packet) Wire() []byte {
	img := p.Image()
	p.settle()
	return img
}

// Image is Wire without settling: it returns the packet's image, whose
// trailer CRCs are stale while the image owes them. It serves the readers
// and writers of bytes before the trailer — the MAC's invariant region, a
// transit edit of the payload, a variant-field mark — which leave the
// owed CRCs to whoever reads the trailer.
func (p *Packet) Image() []byte {
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
// re-serializes. Call it after mutating a header or payload field of an
// already-cached packet, and before writing ICRC or VCRC: it first
// computes the CRCs the image owes from the image itself, so the fields
// hold what an eager seal wrote.
func (p *Packet) InvalidateWire() {
	p.settle()
	p.wireOK = false
}

// ImageInPlace reports whether the packet owns a current wire image with
// Payload a window into it: Wire would return the cached bytes without
// serializing, and a write to Payload is a write to that image.
func (p *Packet) ImageInPlace() bool { return p.wireOK && p.payloadInPlace() }

// Unmarshal parses a wire buffer into p, replacing its contents.
func (p *Packet) Unmarshal(b []byte) error {
	if err := p.parse(b, nil, nil); err != nil {
		return err
	}
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return nil
}

// Ext is storage for the extended transport headers a packet points at,
// one of each: the block a message travels in holds one, and a packet
// parsed in place (ParseImage) points into it.
type Ext struct {
	DETH DETH
	RETH RETH
	AETH AETH
}

// ParseImage is Unmarshal into storage the packet already holds: img is
// copied into the packet's own image storage — reused when large enough
// (ProvideImage), allocated otherwise — and parsed there in place, its
// payload a window into the copy, the extended headers the opcode calls
// for in ext and a GRH in grh (allocated when grh is nil). It yields the
// fields Unmarshal does. The copy is not taken for the packet's image: as
// for an unmarshalled packet, the first read of the image serializes the
// fields into that storage, which drops any bit of img no field holds
// (reserved bits, pad bytes).
func (p *Packet) ParseImage(img []byte, ext *Ext, grh *GRH) error {
	buf := p.img[:0]
	if cap(buf) < len(img) {
		buf = make([]byte, len(img))
	}
	buf = buf[:len(img)]
	copy(buf, img)
	if err := p.parse(buf, ext, grh); err != nil {
		p.img = buf[:0]
		return err
	}
	p.img = buf
	return nil
}

// parse parses b into p, replacing its contents, with Payload a window
// into b (nil when empty). The extended headers go in ext and a GRH in
// grh; where either is nil, parse allocates them.
func (p *Packet) parse(b []byte, ext *Ext, grh *GRH) error {
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
		if grh == nil {
			grh = new(GRH)
		}
		p.GRH = grh
		p.GRH.unmarshal(b[off : off+GRHSize])
		off += GRHSize
	}
	p.BTH.unmarshal(b[off : off+BTHSize])
	off += BTHSize
	op := p.BTH.OpCode
	if ext == nil && (op.HasDETH() || op.HasRETH() || op.HasAETH()) {
		ext = new(Ext)
	}
	if op.HasDETH() {
		if len(b) < off+DETHSize {
			return ErrTooShort
		}
		p.DETH = &ext.DETH
		p.DETH.unmarshal(b[off : off+DETHSize])
		off += DETHSize
	}
	if op.HasRETH() {
		if len(b) < off+RETHSize {
			return ErrTooShort
		}
		p.RETH = &ext.RETH
		p.RETH.unmarshal(b[off : off+RETHSize])
		off += RETHSize
	}
	if op.HasAETH() {
		if len(b) < off+AETHSize {
			return ErrTooShort
		}
		p.AETH = &ext.AETH
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
		p.Payload = b[off:payEnd:payEnd]
	}
	off = len(b) - VCRCSize - ICRCSize
	p.ICRC = uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
	off += ICRCSize
	p.VCRC = uint16(b[off])<<8 | uint16(b[off+1])
	return nil
}

// Clone returns a deep copy of the packet, computing the CRCs its image
// owes first. The wire image is not carried over: the clone exists to be
// mutated, so it serializes into a buffer of its own on first use
// instead of aliasing the original's.
func (p *Packet) Clone() *Packet {
	p.settle()
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
