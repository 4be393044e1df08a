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
// Both CRCs run as slicing-by-8 table kernels (CRC32, CRC16); the
// bit-serial CRC32Bitwise and CRC16Bitwise are the references the tests
// cross-check them against. PatchVCRC is the one place a VCRC is written
// into a wire image.
package icrc

import (
	"fmt"

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
}

// CRC32 computes the reflected CRC-32 (poly 0x04C11DB7, init all-ones,
// post-complement) over data with slicing-by-8. For raw data it is
// bit-identical to hash/crc32's IEEE checksum.
func CRC32(data []byte) uint32 {
	crc := ^uint32(0)
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
	return ^crc
}

// CRC32Bitwise is the reference bit-serial implementation of CRC32, used
// to cross-check the table-driven version in tests.
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

// CRC16 computes the IBA VCRC CRC-16 (poly 0x100B, init all-ones, no
// reflection, no final XOR) over data, MSB-first, with slicing-by-8.
func CRC16(data []byte) uint16 {
	crc := ^uint16(0)
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

// CRC16Bitwise is the reference bit-serial implementation of CRC16, used
// to cross-check the table-driven version in tests.
func CRC16Bitwise(data []byte) uint16 {
	crc := ^uint16(0)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly16
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

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
	if len(wire) < packet.LRHSize+packet.BTHSize+packet.ICRCSize+packet.VCRCSize {
		return nil, fmt.Errorf("icrc: wire buffer too short (%d bytes)", len(wire))
	}
	base := len(dst)
	region := append(dst, wire[:len(wire)-packet.ICRCSize-packet.VCRCSize]...)
	region = region[base:]

	// LRH byte 0 bits 7-4: VL is variant (switches may remap VLs).
	region[0] |= 0xF0
	bthOff := packet.LRHSize
	if lnh := region[1] & 0x03; lnh == packet.LNHIBAGlobal {
		if len(region) < packet.LRHSize+packet.GRHSize+packet.BTHSize {
			return nil, fmt.Errorf("icrc: global packet too short for GRH")
		}
		g := packet.LRHSize
		// GRH word 0: IPVer(4) | TClass(8) | FlowLabel(20) — TClass and
		// FlowLabel are variant; IPVer is invariant.
		region[g] |= 0x0F
		region[g+1] = 0xFF
		region[g+2] = 0xFF
		region[g+3] = 0xFF
		// GRH byte 7: HopLmt is variant (decremented by routers).
		region[g+7] = 0xFF
		bthOff += packet.GRHSize
	}
	// BTH byte 4: Resv8a is variant per IBA 9.2 — which is exactly why the
	// paper can carry the auth-function ID there without breaking the ICRC.
	region[bthOff+4] = 0xFF
	return region, nil
}

// ICRC computes the Invariant CRC for a marshaled packet (which must
// include space for the trailing ICRC and VCRC fields; their current
// contents are ignored).
func ICRC(wire []byte) (uint32, error) {
	region, err := InvariantRegion(wire)
	if err != nil {
		return 0, err
	}
	return CRC32(region), nil
}

// VCRC computes the Variant CRC over LRH through ICRC of a marshaled
// packet.
func VCRC(wire []byte) (uint16, error) {
	if len(wire) < packet.LRHSize+packet.BTHSize+packet.ICRCSize+packet.VCRCSize {
		return 0, fmt.Errorf("icrc: wire buffer too short (%d bytes)", len(wire))
	}
	return CRC16(wire[:len(wire)-packet.VCRCSize]), nil
}

// Seal finalizes p, computes its ICRC and VCRC, and stores them in the
// packet. If p.BTH.AuthID is non-zero the ICRC field is presumed to hold
// an authentication tag already (set by the mac package) and only the VCRC
// is recomputed — this is the paper's Fig. 4(b) packet format.
//
// Seal serializes the packet exactly once: the CRC trailer bytes are
// patched into the wire image in place, and the finished image is left
// installed as the packet's cache (packet.Wire), so downstream hops never
// marshal again. Use Verifier.Seal on a hot path to avoid the per-call
// invariant-region allocation as well.
func Seal(p *packet.Packet) error {
	var v Verifier
	return v.Seal(p)
}

// Verifier computes and checks packet CRCs using an internal scratch
// buffer for the masked invariant region, so steady-state verification
// allocates nothing per packet. The zero value is ready to use. A
// Verifier is not safe for concurrent use — give each HCA/endpoint its
// own (the experiment runner executes whole simulations in parallel, so
// package-global scratch would race).
type Verifier struct {
	scratch []byte
}

// region masks wire's invariant region into the scratch buffer. The
// returned slice is valid until the next call on this Verifier.
func (v *Verifier) region(wire []byte) ([]byte, error) {
	r, err := AppendInvariantRegion(v.scratch[:0], wire)
	if err != nil {
		return nil, err
	}
	v.scratch = r
	return r, nil
}

// InvariantRegion is InvariantRegion backed by the Verifier's scratch
// buffer: no allocation, but the result is only valid until the next
// call on this Verifier. Callers that retain the region must copy it.
func (v *Verifier) InvariantRegion(wire []byte) ([]byte, error) {
	return v.region(wire)
}

// ICRC computes the Invariant CRC of a marshaled packet without
// allocating.
func (v *Verifier) ICRC(wire []byte) (uint32, error) {
	region, err := v.region(wire)
	if err != nil {
		return 0, err
	}
	return CRC32(region), nil
}

// VerifyICRC reports whether the stored ICRC matches the computed one,
// allocating nothing.
func (v *Verifier) VerifyICRC(wire []byte) (bool, error) {
	want, err := v.ICRC(wire)
	if err != nil {
		return false, err
	}
	off := len(wire) - packet.ICRCSize - packet.VCRCSize
	got := uint32(wire[off])<<24 | uint32(wire[off+1])<<16 | uint32(wire[off+2])<<8 | uint32(wire[off+3])
	return got == want, nil
}

// Seal is Seal using the Verifier's scratch buffer; the only allocation
// left is the packet's own wire image, which Seal installs as the cache
// every later hop reads.
func (v *Verifier) Seal(p *packet.Packet) error {
	if err := p.Finalize(); err != nil {
		return err
	}
	p.InvalidateWire()
	wire := p.Wire()
	if p.BTH.AuthID == 0 {
		ic, err := v.ICRC(wire)
		if err != nil {
			return err
		}
		p.ICRC = ic
		off := len(wire) - packet.ICRCSize - packet.VCRCSize
		wire[off] = byte(ic >> 24)
		wire[off+1] = byte(ic >> 16)
		wire[off+2] = byte(ic >> 8)
		wire[off+3] = byte(ic)
	}
	return PatchVCRC(p)
}

// PatchVCRC recomputes the VCRC over p's wire image, patches the two
// trailer bytes in place and stores the value in p.VCRC. It is the one
// place a VCRC is written: a full Seal ends here, and so do the paths
// that reseal the link CRC alone — a signed send that has placed its tag
// in the ICRC field, a switch that has set FECN in the variant Resv8a
// byte.
func PatchVCRC(p *packet.Packet) error {
	wire := p.Wire()
	vc, err := VCRC(wire)
	if err != nil {
		return err
	}
	p.VCRC = vc
	off := len(wire) - packet.VCRCSize
	wire[off] = byte(vc >> 8)
	wire[off+1] = byte(vc)
	return nil
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
