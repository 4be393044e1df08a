// Package icrc implements the InfiniBand CRC fields: the 32-bit Invariant
// CRC (ICRC) that covers all fields unchanged from end to end, and the
// 16-bit Variant CRC (VCRC) recomputed at every link (IBA vol. 1 rel. 1.1,
// section 7.8).
//
// The ICRC uses the Ethernet CRC-32 generator polynomial 0x04C11DB7 in its
// reflected form (identical to IEEE 802.3 / hash/crc32's IEEE table), seeded
// with all ones and post-complemented. Variant fields — LRH.VL, the GRH
// TClass/FlowLabel/HopLmt fields, and BTH.Resv8a — are replaced by ones
// before the CRC is computed, so the value survives switch traversal. The
// paper's authentication mechanism replaces this field with a 32-bit MAC
// tag; everything else on the wire is unchanged.
//
// The VCRC uses the IBA CRC-16 generator polynomial 0x100B seeded with all
// ones and covers the packet from the first byte of the LRH through the
// ICRC.
//
// The wire path runs at hardware speed, as the paper's link-rate CRC
// hardware (its reference [33]) would. The VCRC's update16 folds 16-byte
// blocks with carry-less multiplies (PCLMULQDQ, amd64) and falls back to
// the slicing-by-8 update16Table elsewhere. The ICRC walks the masked
// header, at most 60 bytes copied onto the stack, with the slicing-by-8
// table, and hands the payload to hash/crc32, whose IEEE checksum is this
// CRC. CRC32 is that same stdlib kernel, so Table 4's CRC-32 baseline
// times the CRC the wire runs. The tests hold every kernel to bit-serial
// references of their own (CRC32Bitwise, CRC16Bitwise).
//
// Seal marshals a packet and leaves both CRCs of an unauthenticated one
// owed by its wire image; PatchVCRC owes the VCRC alone, for the paths
// that leave the ICRC field alone; PatchPayload edits an image that still
// owes both in place. An owed CRC is computed by the kernels above when
// the trailer is first read (packet.Packet.Wire), so a run without bit
// errors, which never reads a trailer, never runs them (DESIGN §8 "Seal
// on read").
package icrc

import (
	"fmt"
	"hash/crc32"

	"ibasec/internal/packet"
)

// CRC-32 generator polynomial 0x04C11DB7, reflected.
const poly32Reflected = 0xEDB88320

// CRC-16 generator polynomial x^16 + x^12 + x^3 + x + 1 (IBA 0x100B).
const poly16 = 0x100B

var table32 [256]uint32

// slicing8 holds eight shifted tables for the slicing-by-8 algorithm,
// processing 8 input bytes per iteration — the software analogue of the
// multistage parallel CRC hardware the paper cites for 10 Gb/s CRC-32
// generation (reference [33]).
var slicing8 [8][256]uint32

// slicing16 is slicing8's MSB-first counterpart for the CRC-16: table t
// advances a byte through t further zero bytes, so eight lookups consume
// eight input bytes. 4 KiB, resident in L1 next to the packet.
var slicing16 [8][256]uint16

func init() {
	for i := range table32 {
		crc := uint32(i)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly32Reflected
			} else {
				crc >>= 1
			}
		}
		table32[i] = crc
	}
	slicing8[0] = table32
	for i := 0; i < 256; i++ {
		crc := table32[i]
		for t := 1; t < 8; t++ {
			crc = crc>>8 ^ table32[byte(crc)]
			slicing8[t][i] = crc
		}
	}

	for i := range slicing16[0] {
		crc := uint16(i) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly16
			} else {
				crc <<= 1
			}
		}
		slicing16[0][i] = crc
	}
	for i := 0; i < 256; i++ {
		crc := slicing16[0][i]
		for t := 1; t < 8; t++ {
			crc = crc<<8 ^ slicing16[0][crc>>8]
			slicing16[t][i] = crc
		}
	}

	packet.SetSettle(settle)
}

// CRC32 computes the reflected CRC-32 (poly 0x04C11DB7, init all-ones,
// post-complement) over data: hash/crc32's IEEE checksum, the kernel the
// ICRC runs over the payload. Table 4 times it as the paper's CRC-32
// baseline, whose 0.25 cycles/byte is a parallel-hardware rate
// (reference [33]), not a byte-table loop.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// update32 advances a raw CRC-32 register (no pre- or post-complement)
// over data with slicing-by-8, so a checksum can be resumed across
// discontiguous pieces. The ICRC runs it over the masked header it
// copies onto the stack.
func update32(crc uint32, data []byte) uint32 {
	for len(data) >= 8 {
		crc ^= uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
		crc = slicing8[7][byte(crc)] ^
			slicing8[6][byte(crc>>8)] ^
			slicing8[5][byte(crc>>16)] ^
			slicing8[4][byte(crc>>24)] ^
			slicing8[3][data[4]] ^
			slicing8[2][data[5]] ^
			slicing8[1][data[6]] ^
			slicing8[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = crc>>8 ^ table32[byte(crc)^b]
	}
	return crc
}

// CRC16 computes the IBA VCRC CRC-16 (poly 0x100B, init all-ones, no
// reflection, no final XOR) over data, MSB-first.
func CRC16(data []byte) uint16 { return update16(^uint16(0), data) }

// update16Table advances a CRC-16 register over data with slicing-by-8;
// see update32. It is update16's fallback and the reference its fold is
// tested against.
func update16Table(crc uint16, data []byte) uint16 {
	for len(data) >= 8 {
		crc = slicing16[7][data[0]^byte(crc>>8)] ^
			slicing16[6][data[1]^byte(crc)] ^
			slicing16[5][data[2]] ^
			slicing16[4][data[3]] ^
			slicing16[3][data[4]] ^
			slicing16[2][data[5]] ^
			slicing16[1][data[6]] ^
			slicing16[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = crc<<8 ^ slicing16[0][byte(crc>>8)^b]
	}
	return crc
}

const (
	// minWire is the shortest legal wire image: LRH, BTH and both CRCs.
	minWire = packet.LRHSize + packet.BTHSize + trailerSize
	// trailerSize is the ICRC and VCRC fields that end every packet.
	trailerSize = packet.ICRCSize + packet.VCRCSize
	// maxMaskedHeader is LRH + GRH + BTH: every variant field lies in
	// these leading bytes, so masking needs no more than a copy of them.
	maxMaskedHeader = packet.LRHSize + packet.GRHSize + packet.BTHSize
)

// InvariantRegion returns a copy of the wire buffer's LRH-through-payload
// region (excluding ICRC and VCRC) with all variant fields forced to ones,
// which is the region the ICRC protects. The paper's authentication tag
// is computed over exactly this region, so the tag — like the ICRC it
// replaces — survives switch traversal end to end.
func InvariantRegion(wire []byte) ([]byte, error) {
	return AppendInvariantRegion(nil, wire)
}

// AppendInvariantRegion appends the invariant region of wire to dst and
// returns the extended slice, so a caller holding a scratch buffer can
// mask variant fields without allocating per packet (see Verifier).
func AppendInvariantRegion(dst, wire []byte) ([]byte, error) {
	if len(wire) < minWire {
		return nil, fmt.Errorf("icrc: wire buffer too short (%d bytes)", len(wire))
	}
	base := len(dst)
	region := append(dst, wire[:len(wire)-trailerSize]...)
	region = region[base:]
	if _, err := maskVariant(region); err != nil {
		return nil, err
	}
	return region, nil
}

// maskVariant forces the variant fields of b — a buffer that starts at
// the LRH and holds at least LRH and BTH — to ones in place, and returns
// the offset just past the BTH.
func maskVariant(b []byte) (int, error) {
	// LRH byte 0 bits 7-4: VL is variant (switches may remap VLs).
	b[0] |= 0xF0
	bthOff := packet.LRHSize
	if lnh := b[1] & 0x03; lnh == packet.LNHIBAGlobal {
		if len(b) < maxMaskedHeader {
			return 0, fmt.Errorf("icrc: global packet too short for GRH")
		}
		g := packet.LRHSize
		// GRH word 0: IPVer(4) | TClass(8) | FlowLabel(20) — TClass and
		// FlowLabel are variant; IPVer is invariant.
		b[g] |= 0x0F
		b[g+1] = 0xFF
		b[g+2] = 0xFF
		b[g+3] = 0xFF
		// GRH byte 7: HopLmt is variant (decremented by routers).
		b[g+7] = 0xFF
		bthOff += packet.GRHSize
	}
	// BTH byte 4: Resv8a is variant per IBA 9.2 — which is exactly why the
	// paper can carry the auth-function ID there without breaking the ICRC.
	b[bthOff+4] = 0xFF
	return bthOff + packet.BTHSize, nil
}

// maskedHeader copies wire's LRH, GRH (when present) and BTH into hdr
// with the variant fields forced to ones and returns their length: the
// invariant region is hdr[:n] followed by wire[n:len(wire)-trailerSize].
// hdr lives on the caller's stack, so the CRC paths mask without copying
// the payload.
func maskedHeader(hdr *[maxMaskedHeader]byte, wire []byte) (int, error) {
	if len(wire) < minWire {
		return 0, fmt.Errorf("icrc: wire buffer too short (%d bytes)", len(wire))
	}
	n := copy(hdr[:], wire[:len(wire)-trailerSize])
	return maskVariant(hdr[:n])
}

// ICRC computes the Invariant CRC for a marshaled packet (which must
// include space for the trailing ICRC and VCRC fields; their current
// contents are ignored). It allocates nothing.
//
// The masked header, a copy on this stack, takes the table walk; the rest
// of the region is read where it lies by hash/crc32, whose IEEE checksum is
// this CRC (PCLMULQDQ on amd64, the CRC32 instructions on arm64). The
// header stays out of hash/crc32, which would move it to the heap. The
// table walk also takes the payload's first len%16 bytes, so hash/crc32
// gets whole 16-byte blocks and no ragged tail, which it would walk a
// byte at a time.
func ICRC(wire []byte) (uint32, error) {
	var hdr [maxMaskedHeader]byte
	n, err := maskedHeader(&hdr, wire)
	if err != nil {
		return 0, err
	}
	rest := wire[n : len(wire)-trailerSize]
	k := len(rest) % 16
	crc := update32(update32(^uint32(0), hdr[:n]), rest[:k])
	return crc32.Update(^crc, crc32.IEEETable, rest[k:]), nil
}

// settle computes the CRCs a sealed image owes and writes them into its
// trailer: the ICRC when owed, then the VCRC over the image through that
// ICRC. The VCRC reads one contiguous run, which the fold takes in whole
// 16-byte blocks wherever the image length allows. packet calls it on the
// first read of an owing image's trailer; the image is one Seal
// marshalled, so it is long enough and its LNH matches its headers.
func settle(wire []byte, o packet.Owed) (ic uint32, vc uint16) {
	t := wire[len(wire)-trailerSize:]
	if o&packet.OwedICRC != 0 {
		var err error
		if ic, err = ICRC(wire); err != nil {
			panic(fmt.Sprintf("icrc: settling a sealed image: %v", err))
		}
		t[0], t[1], t[2], t[3] = byte(ic>>24), byte(ic>>16), byte(ic>>8), byte(ic)
	}
	vc = CRC16(wire[:len(wire)-packet.VCRCSize])
	t[4], t[5] = byte(vc>>8), byte(vc)
	return ic, vc
}

// VCRC computes the Variant CRC over LRH through ICRC of a marshaled
// packet.
func VCRC(wire []byte) (uint16, error) {
	if len(wire) < minWire {
		return 0, fmt.Errorf("icrc: wire buffer too short (%d bytes)", len(wire))
	}
	return CRC16(wire[:len(wire)-packet.VCRCSize]), nil
}

// Seal finalizes p and gives it its ICRC and VCRC. If p.BTH.AuthID is
// non-zero the ICRC field is presumed to hold an authentication tag
// already (set by the mac package) and only the VCRC is recomputed — this
// is the paper's Fig. 4(b) packet format.
//
// Seal serializes the packet exactly once (in place when the packet owns
// its image, packet.AllocPayload) and leaves the image as the packet's
// cache (packet.Wire), so downstream hops never marshal again. The CRCs
// themselves are owed (packet.Packet.Remarshal): the first read of the
// trailer computes them over the image as it then stands, which is the
// trailer Seal would have written, since only a payload edit through
// PatchPayload and a variant-field mark through PatchVCRC may write the
// image in between. p.ICRC and p.VCRC are current once the image has been
// read; resealing an untagged packet whose CRCs are still owed computes
// none.
//
// A tag goes into p.ICRC only after the image has been read or
// invalidated (InvalidateWire): settling an owed ICRC writes that field.
// Seal panics on a tagged packet whose image still owes its ICRC, since
// the tag written over it would be lost.
func Seal(p *packet.Packet) error {
	if p.BTH.AuthID != 0 && p.Owes()&packet.OwedICRC != 0 {
		panic("icrc: Seal of a tagged packet whose image still owes its ICRC; invalidate the image before writing the tag")
	}
	if err := p.Finalize(); err != nil {
		return err
	}
	if p.BTH.AuthID != 0 {
		p.Remarshal(packet.OwedVCRC)
	} else {
		p.Remarshal(packet.OwedICRC | packet.OwedVCRC)
	}
	return nil
}

// Verifier holds the scratch buffer InvariantRegion masks into, so an
// endpoint that authenticates every packet allocates nothing per packet.
// The zero value is ready to use. A Verifier is not safe for concurrent
// use — give each HCA/endpoint its own (the experiment runner executes
// whole simulations in parallel, so package-global scratch would race).
// Its Seal and VerifyICRC are the package functions, which need no
// scratch.
type Verifier struct {
	scratch []byte
}

// InvariantRegion is InvariantRegion backed by the Verifier's scratch
// buffer: no allocation, but the result is only valid until the next
// call on this Verifier. Callers that retain the region must copy it.
func (v *Verifier) InvariantRegion(wire []byte) ([]byte, error) {
	r, err := AppendInvariantRegion(v.scratch[:0], wire)
	if err != nil {
		return nil, err
	}
	v.scratch = r
	return r, nil
}

// VerifyICRC is the package's VerifyICRC.
func (v *Verifier) VerifyICRC(wire []byte) (bool, error) { return VerifyICRC(wire) }

// Seal is the package's Seal.
func (v *Verifier) Seal(p *packet.Packet) error { return Seal(p) }

// PatchVCRC leaves p's wire image owing its VCRC, serializing the image
// first if it is not current: the first read of the trailer recomputes
// the VCRC over the image and stores it in the trailer and in p.VCRC. It
// is the VCRC-only writer, for the paths that reseal the link CRC alone:
// a signed send that has placed its tag in the ICRC field, a switch that
// has set FECN in the variant Resv8a byte.
func PatchVCRC(p *packet.Packet) { p.Owe(packet.OwedVCRC) }

// PatchPayload writes b over p's payload at offset off in p's sealed
// image, whose CRCs are still owed: the first read of the trailer
// computes both over the edited image, so the trailer is the one Seal
// writes for the edited packet. It is a transit switch's edit of a
// DR-SMP (its hop pointer and return-path slot), made without marshalling
// the headers again.
//
// It refuses — returns false and leaves p untouched — unless p owns a
// current image with its payload in place (packet.ImageInPlace; an empty
// payload is no window), that image owes its ICRC (an untagged Seal whose
// trailer nothing has read yet), and b lies inside the payload. Seal
// handles what it refuses. It allocates nothing.
func PatchPayload(p *packet.Packet, off int, b []byte) bool {
	if p.Owes()&packet.OwedICRC == 0 || off < 0 || len(b) > len(p.Payload)-off || !p.ImageInPlace() {
		return false
	}
	copy(p.Payload[off:], b)
	return true
}

// VerifyICRC reports whether a marshaled packet's stored ICRC matches the
// computed invariant CRC. Meaningful only when BTH.Resv8a (AuthID) is zero.
func VerifyICRC(wire []byte) (bool, error) {
	want, err := ICRC(wire)
	if err != nil {
		return false, err
	}
	off := len(wire) - packet.ICRCSize - packet.VCRCSize
	got := uint32(wire[off])<<24 | uint32(wire[off+1])<<16 | uint32(wire[off+2])<<8 | uint32(wire[off+3])
	return got == want, nil
}

// VerifyVCRC reports whether a marshaled packet's stored VCRC matches the
// computed variant CRC.
func VerifyVCRC(wire []byte) (bool, error) {
	want, err := VCRC(wire)
	if err != nil {
		return false, err
	}
	off := len(wire) - packet.VCRCSize
	got := uint16(wire[off])<<8 | uint16(wire[off+1])
	return got == want, nil
}
