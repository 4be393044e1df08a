package sm

import (
	"encoding/binary"
	"errors"

	"ibasec/internal/keys"
	"ibasec/internal/packet"
)

// smpTotalSize is the full directed-route SMP MAD: header plus the
// 16-byte attribute data area. Every SMP the SM or an agent emits is
// exactly this long; parseSMP rejects anything shorter so the handlers'
// fixed-offset reads and writes into the data area are always in
// bounds.
const smpTotalSize = smpHeaderSize + smpDataSize

// Parse errors. They are sentinel values (not wrapped fmt.Errorf) so the
// MAD dispatch path allocates nothing when rejecting hostile input.
var (
	errSMPShort = errors.New("sm: truncated SMP")
	errSMPType  = errors.New("sm: not a directed-route SMP")
	errSMPHops  = errors.New("sm: SMP hop fields out of range")

	errTrapShort = errors.New("sm: truncated trap MAD")
	errTrapType  = errors.New("sm: unknown trap type")
)

// smpFrame is a validated view of a directed-route SMP payload. Its
// invariants — HopPtr <= HopCnt <= smpMaxHops and a full-size buffer —
// guarantee that every hop-indexed access the agents perform
// (initial path reads at HopPtr, return-path writes up to HopCnt) stays
// inside the payload, so a hostile or corrupted MAD cannot drive the
// byte-indexing handlers out of range.
type smpFrame struct {
	Method byte
	Attr   byte
	Status byte
	HopCnt int
	HopPtr int
	// Dir is the raw direction byte: 0 outbound, anything else treated
	// as returning (matching the switch agent's historical dispatch).
	Dir  byte
	TxID uint32
	MKey keys.MKey
}

// parseSMP validates a directed-route SMP payload and extracts its
// header fields. The payload bytes are not copied; handlers that mutate
// the SMP in place (hop pointer, return path) keep doing so through the
// original slice.
func parseSMP(pl []byte) (smpFrame, error) {
	if len(pl) < smpTotalSize {
		return smpFrame{}, errSMPShort
	}
	if pl[0] != madTypeDRSMP {
		return smpFrame{}, errSMPType
	}
	f := smpFrame{
		Method: pl[smpOffMethod],
		Attr:   pl[smpOffAttr],
		Status: pl[smpOffStatus],
		HopCnt: int(pl[smpOffHopCnt]),
		HopPtr: int(pl[smpOffHopPtr]),
		Dir:    pl[smpOffDir],
		TxID:   binary.BigEndian.Uint32(pl[smpOffTxID:]),
		MKey:   keys.MKey(binary.BigEndian.Uint64(pl[smpOffMKey:])),
	}
	if f.HopCnt > smpMaxHops || f.HopPtr > f.HopCnt {
		return smpFrame{}, errSMPHops
	}
	return f, nil
}

// trapMAD is a parsed P_Key-violation trap.
type trapMAD struct {
	Offender packet.LID
	PKey     packet.PKey
}

// parseTrap validates a trap payload addressed to the SM.
func parseTrap(pl []byte) (trapMAD, error) {
	if len(pl) < trapPayloadSize {
		return trapMAD{}, errTrapShort
	}
	if pl[0] != trapTypePKeyViolation {
		return trapMAD{}, errTrapType
	}
	return trapMAD{
		Offender: packet.LID(binary.BigEndian.Uint16(pl[1:3])),
		PKey:     packet.PKey(binary.BigEndian.Uint16(pl[3:5])),
	}, nil
}

// putTrap renders a trap payload into pl[:trapPayloadSize];
// parseTrap(pl) then returns t.
func putTrap(pl []byte, t trapMAD) {
	pl[0] = trapTypePKeyViolation
	binary.BigEndian.PutUint16(pl[1:3], uint16(t.Offender))
	binary.BigEndian.PutUint16(pl[3:5], uint16(t.PKey))
}
