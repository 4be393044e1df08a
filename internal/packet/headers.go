package packet

import (
	"encoding/binary"
	"fmt"
)

// Header sizes in bytes (IBA vol. 1 rel. 1.1).
const (
	LRHSize  = 8
	GRHSize  = 40
	BTHSize  = 12
	DETHSize = 8
	RETHSize = 16
	AETHSize = 4
	ImmSize  = 4
	ICRCSize = 4
	VCRCSize = 2
)

// LNH (Link Next Header) values in the LRH for IBA transport packets;
// the raw (0) and IPv6 (1) encodings are never built here.
const (
	LNHIBALocal  = 0x2 // BTH follows (no GRH)
	LNHIBAGlobal = 0x3 // GRH then BTH
)

// LID is a 16-bit local identifier assigned by the subnet manager.
type LID uint16

// Broadcast / permissive LID per IBA.
const LIDPermissive LID = 0xFFFF

// LRH is the 8-byte Local Route Header (IBA 7.7).
//
//	byte 0: VL(4) | LVer(4)
//	byte 1: SL(4) | rsvd(2) | LNH(2)
//	bytes 2-3: DLID
//	bytes 4-5: rsvd(5) | PktLen(11)   (length in 4-byte words, LRH..ICRC)
//	bytes 6-7: SLID
type LRH struct {
	VL     uint8 // virtual lane, 0-15 (variant: switches may remap)
	LVer   uint8 // link version, 4 bits
	SL     uint8 // service level, 4 bits
	LNH    uint8 // link next header, 2 bits
	DLID   LID
	PktLen uint16 // 11 bits, length in 4-byte words from LRH through ICRC
	SLID   LID
}

func (h *LRH) marshal(b []byte) {
	b[0] = h.VL<<4 | h.LVer&0x0F
	b[1] = h.SL<<4 | h.LNH&0x03
	binary.BigEndian.PutUint16(b[2:4], uint16(h.DLID))
	binary.BigEndian.PutUint16(b[4:6], h.PktLen&0x07FF)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.SLID))
}

func (h *LRH) unmarshal(b []byte) {
	h.VL = b[0] >> 4
	h.LVer = b[0] & 0x0F
	h.SL = b[1] >> 4
	h.LNH = b[1] & 0x03
	h.DLID = LID(binary.BigEndian.Uint16(b[2:4]))
	h.PktLen = binary.BigEndian.Uint16(b[4:6]) & 0x07FF
	h.SLID = LID(binary.BigEndian.Uint16(b[6:8]))
}

// GID is a 128-bit global identifier.
type GID [16]byte

// GRH is the 40-byte Global Route Header (IBA 8.3), present only when
// LRH.LNH == LNHIBAGlobal. TClass, FlowLabel and HopLimit are variant
// fields for ICRC purposes.
type GRH struct {
	IPVer     uint8  // 4 bits, always 6
	TClass    uint8  // traffic class (variant)
	FlowLabel uint32 // 20 bits (variant)
	PayLen    uint16 // payload length
	NxtHdr    uint8  // next header, 0x1B for IBA BTH
	HopLmt    uint8  // hop limit (variant)
	SGID      GID
	DGID      GID
}

func (h *GRH) marshal(b []byte) {
	v := uint32(h.IPVer&0x0F)<<28 | uint32(h.TClass)<<20 | h.FlowLabel&0xFFFFF
	binary.BigEndian.PutUint32(b[0:4], v)
	binary.BigEndian.PutUint16(b[4:6], h.PayLen)
	b[6] = h.NxtHdr
	b[7] = h.HopLmt
	copy(b[8:24], h.SGID[:])
	copy(b[24:40], h.DGID[:])
}

func (h *GRH) unmarshal(b []byte) {
	v := binary.BigEndian.Uint32(b[0:4])
	h.IPVer = uint8(v >> 28)
	h.TClass = uint8(v >> 20)
	h.FlowLabel = v & 0xFFFFF
	h.PayLen = binary.BigEndian.Uint16(b[4:6])
	h.NxtHdr = b[6]
	h.HopLmt = b[7]
	copy(h.SGID[:], b[8:24])
	copy(h.DGID[:], b[24:40])
}

// QPN is a 24-bit queue pair number.
type QPN uint32

// PKey is a 16-bit partition key: 15-bit key value plus the high
// membership bit (1 = full member, 0 = limited member). See IBA 10.9.
type PKey uint16

// Membership reports whether the P_Key has the full-membership bit set.
func (k PKey) Full() bool { return k&0x8000 != 0 }

// Base returns the 15-bit key value without the membership bit.
func (k PKey) Base() uint16 { return uint16(k) & 0x7FFF }

// BTH is the 12-byte Base Transport Header (IBA 9.2).
//
//	byte 0:    OpCode
//	byte 1:    SE(1) | M(1) | PadCnt(2) | TVer(4)
//	bytes 2-3: P_Key
//	byte 4:    Resv8a — variant, masked in ICRC. Packed here as
//	           FECN(1) | BECN(1) | AuthID(6): the congestion-control
//	           annex notification bits share the byte with the paper's
//	           authentication-function identifier (section 5.1), which
//	           only needs the low six bits. Because the whole byte is
//	           variant, a switch may set FECN mid-flight without
//	           breaking the ICRC or the authentication tag.
//	bytes 5-7: DestQP (24 bits)
//	byte 8:    A(1) | rsvd(7)
//	bytes 9-11: PSN (24 bits)
type BTH struct {
	OpCode OpCode
	SE     bool  // solicited event
	M      bool  // MigReq
	PadCnt uint8 // 2 bits: pad bytes appended to payload
	TVer   uint8 // 4 bits: transport version
	PKey   PKey
	FECN   bool  // forward explicit congestion notification (CC annex)
	BECN   bool  // backward explicit congestion notification (CC annex)
	AuthID uint8 // Resv8a low 6 bits: 0 = plain ICRC, non-zero = MAC function id
	DestQP QPN
	AckReq bool
	PSN    uint32 // 24 bits
}

// BTH Resv8a bit masks: FECN and BECN occupy the top two bits, the
// authentication-function identifier the remaining six.
const (
	BTHFECNBit   = 0x80
	BTHBECNBit   = 0x40
	BTHAuthIDMax = 0x3F
)

func (h *BTH) marshal(b []byte) {
	b[0] = uint8(h.OpCode)
	b[1] = h.PadCnt<<4&0x30 | h.TVer&0x0F
	if h.SE {
		b[1] |= 0x80
	}
	if h.M {
		b[1] |= 0x40
	}
	binary.BigEndian.PutUint16(b[2:4], uint16(h.PKey))
	b[4] = h.AuthID & BTHAuthIDMax
	if h.FECN {
		b[4] |= BTHFECNBit
	}
	if h.BECN {
		b[4] |= BTHBECNBit
	}
	putUint24(b[5:8], uint32(h.DestQP))
	b[8] = 0
	if h.AckReq {
		b[8] = 0x80
	}
	putUint24(b[9:12], h.PSN)
}

func (h *BTH) unmarshal(b []byte) {
	h.OpCode = OpCode(b[0])
	h.SE = b[1]&0x80 != 0
	h.M = b[1]&0x40 != 0
	h.PadCnt = b[1] >> 4 & 0x03
	h.TVer = b[1] & 0x0F
	h.PKey = PKey(binary.BigEndian.Uint16(b[2:4]))
	h.FECN = b[4]&BTHFECNBit != 0
	h.BECN = b[4]&BTHBECNBit != 0
	h.AuthID = b[4] & BTHAuthIDMax
	h.DestQP = QPN(uint24(b[5:8]))
	h.AckReq = b[8]&0x80 != 0
	h.PSN = uint24(b[9:12])
}

// QKey is a 32-bit queue key carried by datagram packets (IBA 10.2.5).
type QKey uint32

// DETH is the 8-byte Datagram Extended Transport Header (IBA 9.3.3):
// Q_Key(32) | rsvd(8) | SrcQP(24).
type DETH struct {
	QKey  QKey
	SrcQP QPN
}

func (h *DETH) marshal(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], uint32(h.QKey))
	b[4] = 0
	putUint24(b[5:8], uint32(h.SrcQP))
}

func (h *DETH) unmarshal(b []byte) {
	h.QKey = QKey(binary.BigEndian.Uint32(b[0:4]))
	h.SrcQP = QPN(uint24(b[5:8]))
}

// RKey is a 32-bit remote memory access key (IBA 10.6.3).
type RKey uint32

// RETH is the 16-byte RDMA Extended Transport Header (IBA 9.3.1):
// VA(64) | R_Key(32) | DMALen(32).
type RETH struct {
	VA     uint64
	RKey   RKey
	DMALen uint32
}

func (h *RETH) marshal(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], h.VA)
	binary.BigEndian.PutUint32(b[8:12], uint32(h.RKey))
	binary.BigEndian.PutUint32(b[12:16], h.DMALen)
}

func (h *RETH) unmarshal(b []byte) {
	h.VA = binary.BigEndian.Uint64(b[0:8])
	h.RKey = RKey(binary.BigEndian.Uint32(b[8:12]))
	h.DMALen = binary.BigEndian.Uint32(b[12:16])
}

// AETH is the 4-byte ACK Extended Transport Header (IBA 9.3.5):
// Syndrome(8) | MSN(24).
type AETH struct {
	Syndrome uint8
	MSN      uint32 // 24 bits
}

func (h *AETH) marshal(b []byte) {
	b[0] = h.Syndrome
	putUint24(b[1:4], h.MSN)
}

func (h *AETH) unmarshal(b []byte) {
	h.Syndrome = b[0]
	h.MSN = uint24(b[1:4])
}

// AETH syndrome encodings (IBA 9.7.5.2.1, reduced to the two classes
// this model generates). The top three bits select the class — ACK
// (000), NAK (011) — and the low five bits carry the NAK code (0 = PSN
// sequence error).
const (
	AETHAck    uint8 = 0x00
	AETHNAKSeq uint8 = 0x60
)

// IsNAK reports whether the syndrome encodes a PSN-sequence-error NAK.
func (h *AETH) IsNAK() bool { return h.Syndrome&0xE0 == 0x60 }

func putUint24(b []byte, v uint32) {
	if v > 0xFFFFFF {
		panic(fmt.Sprintf("packet: value %#x exceeds 24 bits", v))
	}
	b[0] = byte(v >> 16)
	b[1] = byte(v >> 8)
	b[2] = byte(v)
}

func uint24(b []byte) uint32 {
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
}
