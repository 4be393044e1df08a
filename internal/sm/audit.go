package sm

import (
	"encoding/binary"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/packet"
)

// In-band enforcement-state audit: three SMP attributes extending the
// directed-route protocol of discovery.go, all inside the same 16-byte
// attribute data area so audit traffic is wire-identical in size and
// timing to discovery SMPs.
//
//   - AuditState (Get): one probe returns digests of the switch's
//     programmed enforcement state — valid table, Invalid_P_Key_Table,
//     alternate-source registrations — plus the SIF active flag and the
//     mode. The auditor compares these against compiled intent;
//     matching digests end the audit of that switch at a cost of a
//     single MAD. No intent declares an alternate source, so no auditor
//     reads that digest; it stays in the response, whose bytes the
//     delivered-wire pins hash.
//   - AuditEntries (Get): chunked read-back of one table, six 16-bit
//     entries per SMP, for drift attribution after a digest mismatch.
//   - AuditRepair (Set, M_Key-guarded): applies one entry-level fix.
const (
	smpAttrAuditState   = 4
	smpAttrAuditEntries = 5
	smpAttrAuditRepair  = 6
)

// Exported SMP method/attribute/status values for callers driving the
// audit protocol through Discoverer.Query (the policy auditor).
const (
	MethodGet = smpMethodGet
	MethodSet = smpMethodSet

	AttrAuditState   = smpAttrAuditState
	AttrAuditEntries = smpAttrAuditEntries
	AttrAuditRepair  = smpAttrAuditRepair

	StatusOK = smpStatusOK
)

// Audit table selectors for AuditEntries.
const (
	AuditTableValid   = 0
	AuditTableInvalid = 1
)

// Repair operations for AuditRepair. The values are wire bytes; 4 was
// an alternate-source registration.
const (
	RepairAddValid    = 1
	RepairRemoveValid = 2
	RepairAddInvalid  = 3
	RepairActivate    = 5
)

// AuditEntriesPerChunk is how many 16-bit entries one AuditEntries
// response carries: the 16-byte data area minus total (2) and count (1).
const AuditEntriesPerChunk = (smpDataSize - 3) / 2

// AuditState is the parsed AuditState response.
type AuditState struct {
	ValidDigest   uint32
	InvalidDigest uint32
	AltDigest     uint32
	Active        bool
	Mode          enforce.Mode
}

// encodeAuditState packs an AuditState into a response data area.
func encodeAuditState(data []byte, st AuditState) {
	binary.BigEndian.PutUint32(data[0:4], st.ValidDigest)
	binary.BigEndian.PutUint32(data[4:8], st.InvalidDigest)
	binary.BigEndian.PutUint32(data[8:12], st.AltDigest)
	data[12] = 0
	if st.Active {
		data[12] = 1
	}
	data[13] = byte(st.Mode)
}

// ParseAuditState decodes an AuditState response data area.
func ParseAuditState(data []byte) AuditState {
	return AuditState{
		ValidDigest:   binary.BigEndian.Uint32(data[0:4]),
		InvalidDigest: binary.BigEndian.Uint32(data[4:8]),
		AltDigest:     binary.BigEndian.Uint32(data[8:12]),
		Active:        data[12] != 0,
		Mode:          enforce.Mode(data[13]),
	}
}

// AuditChunk is the parsed AuditEntries response: Total is the table's
// full size, Entries the slice starting at the requested offset.
type AuditChunk struct {
	Total   int
	Entries []uint16
}

// ParseAuditChunk decodes an AuditEntries response data area.
func ParseAuditChunk(data []byte) AuditChunk {
	c := AuditChunk{Total: int(binary.BigEndian.Uint16(data[0:2]))}
	c.Entries = make([]uint16, min(int(data[2]), AuditEntriesPerChunk))
	for i := range c.Entries {
		c.Entries[i] = binary.BigEndian.Uint16(data[3+2*i:])
	}
	return c
}

// EncodeAuditEntriesReq builds the AuditEntries request data: table
// selector and start index.
func EncodeAuditEntriesReq(table int, start int) []byte {
	data := make([]byte, 3)
	data[0] = byte(table)
	binary.BigEndian.PutUint16(data[1:3], uint16(start))
	return data
}

// EncodeAuditRepairReq builds the AuditRepair request data: operation
// and 16-bit operand (a P_Key; ignored by Activate).
func EncodeAuditRepairReq(op int, val uint16) []byte {
	data := make([]byte, 3)
	data[0] = byte(op)
	binary.BigEndian.PutUint16(data[1:3], val)
	return data
}

// Query issues a single SMP along an explicit directed route and hands
// its outcome to to.SMPDone under tag: the response's attribute data, or
// status 0xFF on terminal timeout. The data is a window into the
// delivered packet, valid until SMPDone returns: copy what you keep. It
// rides the Discoverer's retry/backoff machinery, so the policy auditor's
// probes behave under MAD loss exactly like discovery probes.
func (d *Discoverer) Query(method, attr byte, path []byte, data []byte, to SMPCompleter, tag uint64) {
	d.request(method, attr, path, data, d.MaxRetries, to, tag)
}

// auditState answers an AuditState Get.
func (a *SwitchAgent) auditState(sw *fabric.Switch, resp []byte) {
	if a.Enforce == nil {
		resp[smpOffStatus] = smpStatusUnsupported
		return
	}
	snap := a.Enforce.Snapshot(sw)
	encodeAuditState(resp[smpOffData:], AuditState{
		ValidDigest:   enforce.Digest16(snap.Valid),
		InvalidDigest: enforce.Digest16(snap.Invalid),
		AltDigest:     enforce.Digest16(snap.AltSources),
		Active:        snap.Active,
		Mode:          snap.Mode,
	})
	sw.Counters.Add(fabric.SwSMPAuditState, 1)
}

// auditEntries answers an AuditEntries Get from the request in pl.
func (a *SwitchAgent) auditEntries(sw *fabric.Switch, pl, resp []byte) {
	if a.Enforce == nil {
		resp[smpOffStatus] = smpStatusUnsupported
		return
	}
	start := int(binary.BigEndian.Uint16(pl[smpOffData+1:]))
	snap := a.Enforce.Snapshot(sw)
	data := resp[smpOffData:]
	switch pl[smpOffData] {
	case AuditTableValid:
		putAuditChunk(data, snap.Valid, start)
	case AuditTableInvalid:
		putAuditChunk(data, snap.Invalid, start)
	default:
		resp[smpOffStatus] = smpStatusUnsupported
		return
	}
}

// putAuditChunk encodes an AuditEntries response: the table's size and
// up to AuditEntriesPerChunk of its entries from start on.
func putAuditChunk[T ~uint16](data []byte, entries []T, start int) {
	binary.BigEndian.PutUint16(data[0:2], uint16(len(entries)))
	n := 0
	for i := start; i < len(entries) && n < AuditEntriesPerChunk; i++ {
		binary.BigEndian.PutUint16(data[3+2*n:], uint16(entries[i]))
		n++
	}
	data[2] = byte(n)
}

// auditRepair applies an M_Key-checked AuditRepair Set (the key was
// already verified by the caller).
func (a *SwitchAgent) auditRepair(sw *fabric.Switch, pl, resp []byte) {
	if a.Enforce == nil {
		resp[smpOffStatus] = smpStatusUnsupported
		return
	}
	op := int(pl[smpOffData])
	val := binary.BigEndian.Uint16(pl[smpOffData+1:])
	switch op {
	case RepairAddValid:
		a.Enforce.AddValid(sw, packet.PKey(val))
	case RepairRemoveValid:
		a.Enforce.RemoveValid(sw, packet.PKey(val))
	case RepairAddInvalid:
		a.Enforce.RegisterInvalid(sw, packet.PKey(val))
	case RepairActivate:
		a.Enforce.SetActive(sw, true)
	default:
		resp[smpOffStatus] = smpStatusUnsupported
		return
	}
}
