package transport

import (
	"errors"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
)

// This file adds the remaining transport services: the Unreliable
// Connection (UC) — connection-oriented like RC, so packets carry only a
// P_Key and no Q_Key (the property the paper's Table 3 notes:
// "connection-oriented service does not have Q_Key") — and RC RDMA Read,
// the second half of the paper's R_Key threat surface ("the memory can
// be read or written without any intervention of destination QP").

// ErrReadPending is returned when an RDMA read with the same PSN is
// already outstanding.
var ErrReadPending = errors.New("transport: RDMA read already pending for PSN")

// CreateUCQP allocates an Unreliable Connection QP in the given
// partition. It must be connected with ConnectUC before use.
func (e *Endpoint) CreateUCQP(pkey packet.PKey) *QP {
	return e.createQP(packet.ServiceUC, pkey, 0)
}

// ConnectUC performs the UC connection handshake; it reuses the RC
// connect GSI exchange (including QP-level secret establishment) but the
// resulting connection is unacknowledged.
func (e *Endpoint) ConnectUC(q *QP, dstLID packet.LID, targetQPN packet.QPN, cb func(err error)) error {
	return e.connect(q, packet.ServiceUC, EpUCConnects, dstLID, targetQPN, cb)
}

// SendUC sends payload over a connected UC QP: no acknowledgement, no
// retransmission — loss is the consumer's problem, like UD but with
// connection state instead of a Q_Key.
func (e *Endpoint) SendUC(q *QP, payload []byte, class fabric.Class) error {
	if q.Service != packet.ServiceUC || q.RemoteLID == 0 {
		return ErrNotRC
	}
	if len(payload) > packet.MTU {
		return ErrPayloadSize
	}
	d := e.newMessage(class, q.RemoteLID, packet.BTH{OpCode: packet.UCSendOnly, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: q.nextPSN()}, len(payload))
	copy(d.Pkt.Payload, payload)
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		return err
	}
	e.Counters.Add(EpUCSent, 1)
	e.hca.Send(d)
	return nil
}

// RDMARead requests length bytes from the remote region at (va, rkey)
// over a connected RC QP. cb receives the data (or nil if the read is
// never answered; the reliability layer retries the request like any
// other RC packet).
func (e *Endpoint) RDMARead(q *QP, va uint64, rkey packet.RKey, length uint32, class fabric.Class, cb func(data []byte)) error {
	if q.Service != packet.ServiceRC || q.RemoteLID == 0 {
		return ErrNotRC
	}
	if int(length) > packet.MTU {
		return ErrPayloadSize
	}
	psn := q.nextPSN()
	if _, dup := e.pendingReads[psn]; dup {
		return ErrReadPending
	}
	d := e.newMessage(class, q.RemoteLID, packet.BTH{OpCode: packet.RCRDMAReadReq, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: psn}, 0)
	*d.Pkt.RETH = packet.RETH{VA: va, RKey: rkey, DMALen: length}
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		return err
	}
	if e.pendingReads == nil {
		e.pendingReads = make(map[uint32]func([]byte))
	}
	e.pendingReads[psn] = cb
	e.trackReliable(q, d.Pkt, class)
	e.Counters.Add(EpRDMAReadSent, 1)
	e.hca.Send(d)
	return nil
}

// handleRDMAReadReq executes a verified read request at the responder:
// R_Key and bounds are checked exactly as for writes, then the data
// travels back in an RDMA read response carrying the request's PSN.
func (e *Endpoint) handleRDMAReadReq(q *QP, p *packet.Packet) {
	r, ok := e.regions[p.RETH.RKey]
	if !ok {
		e.Counters.Add(EpRKeyViolations, 1)
		return
	}
	off := p.RETH.VA - r.VA
	if p.RETH.VA < r.VA || off+uint64(p.RETH.DMALen) > uint64(len(r.Data)) {
		e.Counters.Add(EpRDMABoundsViolations, 1)
		return
	}
	e.Counters.Add(EpRDMAReads, 1)
	d := e.newMessage(fabric.ClassBestEffort, q.RemoteLID, packet.BTH{OpCode: packet.RCRDMAReadRespO, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: p.BTH.PSN}, int(p.RETH.DMALen))
	*d.Pkt.AETH = packet.AETH{Syndrome: 0, MSN: p.BTH.PSN}
	copy(d.Pkt.Payload, r.Data[off:])
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		e.Counters.Add(EpRDMAReadSealFailed, 1)
		return
	}
	e.hca.Send(d)
}

// handleRDMAReadResp completes a pending read at the requester. The
// response's AETH also acknowledges the request PSN.
func (e *Endpoint) handleRDMAReadResp(q *QP, p *packet.Packet) {
	e.handleRCAck(q, p) // implicit acknowledgement
	cb, ok := e.pendingReads[p.BTH.PSN]
	if !ok {
		e.Counters.Add(EpRDMAReadUnexpected, 1)
		return
	}
	delete(e.pendingReads, p.BTH.PSN)
	e.Counters.Add(EpRDMAReadCompleted, 1)
	if cb != nil {
		cb(p.Payload)
	}
}
