// Package packet implements byte-exact InfiniBand Architecture data-packet
// formats: LRH, GRH, BTH, DETH, RETH, AETH, payload, and the trailing
// ICRC/VCRC fields (IBA spec vol. 1, release 1.1, chapters 6-9).
//
// The paper's authentication mechanism ("Security Enhancement in InfiniBand
// Architecture", IPPS 2005, section 5.1) reinterprets the 32-bit Invariant
// CRC field as a Message Authentication Code and uses the Reserved byte of
// the Base Transport Header (Resv8a) to identify which authentication
// function produced the tag; both are modelled here without changing any
// field size or offset, exactly as the paper requires.
package packet

import "fmt"

// OpCode is the 8-bit BTH opcode. The top three bits select the transport
// service; the bottom five bits select the operation (IBA 9.2).
type OpCode uint8

// Transport service opcode prefixes (OpCode bits 7-5).
const (
	prefixRC  = 0x00 // Reliable Connection
	prefixUC  = 0x20 // Unreliable Connection
	prefixRD  = 0x40 // Reliable Datagram
	prefixUD  = 0x60 // Unreliable Datagram
	prefixCNP = 0x80
)

// Opcodes used by the simulator. Values follow IBA table 35.
const (
	// Reliable Connection (RC).
	RCSendFirst      OpCode = 0x00
	RCSendMiddle     OpCode = 0x01
	RCSendLast       OpCode = 0x02
	RCSendOnly       OpCode = 0x04
	RCRDMAWriteFirst OpCode = 0x06
	RCRDMAWriteLast  OpCode = 0x08
	RCRDMAWriteOnly  OpCode = 0x0A
	RCRDMAReadReq    OpCode = 0x0C
	RCRDMAReadRespO  OpCode = 0x10
	RCAck            OpCode = 0x11

	// Unreliable Connection (UC).
	UCSendOnly OpCode = 0x24

	// Unreliable Datagram (UD).
	UDSendOnly    OpCode = 0x64
	UDSendOnlyImm OpCode = 0x65

	// Congestion Notification Packet (CC annex A10): a standalone BTH-only
	// packet a destination returns to a UD source whose packets arrived
	// FECN-marked. RC flows piggyback BECN on ACKs instead.
	CNPNotify OpCode = 0x81
)

// Service identifies an IBA transport service type.
type Service uint8

// Transport service types.
const (
	ServiceRC Service = iota
	ServiceUC
	ServiceRD
	ServiceUD
	ServiceOther
)

func (s Service) String() string {
	switch s {
	case ServiceRC:
		return "RC"
	case ServiceUC:
		return "UC"
	case ServiceRD:
		return "RD"
	case ServiceUD:
		return "UD"
	default:
		return "other"
	}
}

// Service returns the transport service class encoded in the opcode.
func (op OpCode) Service() Service {
	switch uint8(op) & 0xE0 {
	case prefixRC:
		return ServiceRC
	case prefixUC:
		return ServiceUC
	case prefixRD:
		return ServiceRD
	case prefixUD:
		return ServiceUD
	default:
		return ServiceOther
	}
}

// HasDETH reports whether packets with this opcode carry a Datagram
// Extended Transport Header (UD sends carry the Q_Key and source QP there).
func (op OpCode) HasDETH() bool { return op.Service() == ServiceUD }

// HasRETH reports whether packets with this opcode carry an RDMA Extended
// Transport Header (virtual address, R_Key, DMA length).
func (op OpCode) HasRETH() bool {
	return op == RCRDMAWriteFirst || op == RCRDMAWriteOnly || op == RCRDMAReadReq
}

// HasAETH reports whether packets with this opcode carry an ACK Extended
// Transport Header.
func (op OpCode) HasAETH() bool { return op == RCAck || op == RCRDMAReadRespO }

// HasImm reports whether packets with this opcode carry a 4-byte
// immediate-data field after the transport headers.
func (op OpCode) HasImm() bool { return op == UDSendOnlyImm }

// HeaderSize returns the bytes of headers a packet of this opcode carries
// without a GRH: LRH, BTH, and the extended transport headers and
// immediate data the opcode calls for.
func (op OpCode) HeaderSize() int {
	n := LRHSize + BTHSize
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

func (op OpCode) String() string {
	switch op {
	case RCSendFirst:
		return "RC_SEND_FIRST"
	case RCSendMiddle:
		return "RC_SEND_MIDDLE"
	case RCSendLast:
		return "RC_SEND_LAST"
	case RCSendOnly:
		return "RC_SEND_ONLY"
	case RCRDMAWriteFirst:
		return "RC_RDMA_WRITE_FIRST"
	case RCRDMAWriteLast:
		return "RC_RDMA_WRITE_LAST"
	case RCRDMAWriteOnly:
		return "RC_RDMA_WRITE_ONLY"
	case RCRDMAReadReq:
		return "RC_RDMA_READ_REQUEST"
	case RCRDMAReadRespO:
		return "RC_RDMA_READ_RESPONSE_ONLY"
	case RCAck:
		return "RC_ACKNOWLEDGE"
	case UCSendOnly:
		return "UC_SEND_ONLY"
	case UDSendOnly:
		return "UD_SEND_ONLY"
	case UDSendOnlyImm:
		return "UD_SEND_ONLY_IMMEDIATE"
	case CNPNotify:
		return "CNP"
	default:
		return fmt.Sprintf("OpCode(0x%02x)", uint8(op))
	}
}
