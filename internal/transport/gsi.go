package transport

import (
	"encoding/binary"
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
)

// General Service Interface (QP 1) message types implementing the paper's
// key-establishment flows:
//
//   - Q_Key request/response (section 4.3): "If a QP wants to communicate
//     with another datagram QP, it first sends a packet to request
//     destination QP's Q_Key and receives it. ... a secret key is
//     generated at every Q_Key request, which gets encrypted by the
//     requester's public key before sending it."
//   - RC connect (section 4.3): "a QP that initiates the connection
//     creates a secret key and sends it to a destination QP", sealed to
//     the destination node's public key.
const (
	gsiQKeyRequest   = 1
	gsiQKeyResponse  = 2
	gsiRCConnectReq  = 3
	gsiRCConnectAck  = 4
	gsiHeaderSize    = 9 // type(1) + two QPNs(4+4)
	gsiMaxEnvelope   = 512
	gsiResponseExtra = 6 // qkey(4) + envLen(2)
)

type qkeyRequest struct {
	q      *QP
	target packet.QPN
	cb     func(qkey packet.QKey, err error)
}

type rcRequest struct {
	q      *QP
	target packet.QPN
	secret keys.SecretKey
	cb     func(err error)
}

// pendKey identifies an outstanding exchange: one local QP may have
// requests in flight to several peers at once.
type pendKey struct {
	qpn packet.QPN
	lid packet.LID
}

// sendGSI transmits a control message to the destination's QP 1.
func (e *Endpoint) sendGSI(dstLID packet.LID, pkey packet.PKey, payload []byte) {
	d := e.newMessage(fabric.ClassBestEffort, dstLID, packet.BTH{OpCode: packet.UDSendOnly, PKey: pkey, DestQP: qpnGSI}, len(payload))
	*d.Pkt.DETH = packet.DETH{QKey: 0, SrcQP: qpnGSI}
	copy(d.Pkt.Payload, payload)
	if err := icrc.Seal(d.Pkt); err != nil {
		panic(fmt.Sprintf("transport: sealing GSI packet: %v", err))
	}
	e.Counters.Add(EpGSISent, 1)
	e.hca.Send(d)
}

func gsiHeader(msgType byte, a, b packet.QPN) []byte {
	buf := make([]byte, gsiHeaderSize)
	buf[0] = msgType
	binary.BigEndian.PutUint32(buf[1:5], uint32(a))
	binary.BigEndian.PutUint32(buf[5:9], uint32(b))
	return buf
}

// RequestQKey performs the datagram key-establishment round trip: it asks
// the QP at (dstLID, targetQPN) for its Q_Key; under QP-level key
// management the response also carries a fresh secret sealed to this
// node's public key. cb fires when the response arrives.
func (e *Endpoint) RequestQKey(q *QP, dstLID packet.LID, targetQPN packet.QPN, cb func(qkey packet.QKey, err error)) error {
	if q.Service != packet.ServiceUD {
		return ErrNotUD
	}
	if e.pendingQKey == nil {
		e.pendingQKey = make(map[pendKey]*qkeyRequest)
	}
	e.pendingQKey[pendKey{q.N, dstLID}] = &qkeyRequest{q: q, target: targetQPN, cb: cb}
	e.Counters.Add(EpQKeyRequests, 1)
	e.sendGSI(dstLID, q.PKey, gsiHeader(gsiQKeyRequest, q.N, targetQPN))
	return nil
}

// ConnectRC performs the RC connection handshake with the QP at (dstLID,
// targetQPN). Under QP-level key management the initiator generates the
// pair secret and ships it sealed to the responder's public key.
func (e *Endpoint) ConnectRC(q *QP, dstLID packet.LID, targetQPN packet.QPN, cb func(err error)) error {
	return e.connect(q, packet.ServiceRC, EpRCConnects, dstLID, targetQPN, cb)
}

// connect runs the connection handshake for a QP of service svc and
// counts it under counter.
func (e *Endpoint) connect(q *QP, svc packet.Service, counter EndpointCounter, dstLID packet.LID, targetQPN packet.QPN, cb func(err error)) error {
	if q.Service != svc {
		return ErrNotRC
	}
	req := &rcRequest{q: q, target: targetQPN, cb: cb}
	payload := gsiHeader(gsiRCConnectReq, q.N, targetQPN)
	if e.cfg.KeyLevel == QPLevel {
		secret, env, err := e.issueFor(dstLID)
		if err != nil {
			return err
		}
		req.secret = secret
		payload = appendEnvelope(payload, env)
	} else {
		payload = append(payload, 0, 0)
	}
	if e.pendingRC == nil {
		e.pendingRC = make(map[pendKey]*rcRequest)
	}
	e.pendingRC[pendKey{q.N, dstLID}] = req
	e.Counters.Add(counter, 1)
	e.sendGSI(dstLID, q.PKey, payload)
	return nil
}

// issueFor generates a secret and seals it to the node at dstLID.
func (e *Endpoint) issueFor(dstLID packet.LID) (keys.SecretKey, keys.Envelope, error) {
	if e.cfg.Directory == nil || e.cfg.RNG == nil {
		return keys.SecretKey{}, keys.Envelope{}, fmt.Errorf("transport: QP-level keys need a directory and RNG")
	}
	return keys.IssueQPSecret(e.cfg.RNG, e.cfg.Directory, e.cfg.NameOf(dstLID))
}

func appendEnvelope(payload []byte, env keys.Envelope) []byte {
	if len(env.Ciphertext) > gsiMaxEnvelope {
		panic("transport: envelope exceeds GSI limit")
	}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(env.Ciphertext)))
	payload = append(payload, lenBuf[:]...)
	return append(payload, env.Ciphertext...)
}

// parseEnvelope reads what appendEnvelope wrote, refusing a length
// appendEnvelope could not have written.
func parseEnvelope(b []byte) (keys.Envelope, error) {
	if len(b) < 2 {
		return keys.Envelope{}, fmt.Errorf("transport: truncated envelope length")
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if n == 0 {
		return keys.Envelope{}, nil
	}
	if n > gsiMaxEnvelope {
		return keys.Envelope{}, fmt.Errorf("transport: envelope length %d exceeds the GSI limit %d", n, gsiMaxEnvelope)
	}
	if len(b) < 2+n {
		return keys.Envelope{}, fmt.Errorf("transport: truncated envelope (%d < %d)", len(b)-2, n)
	}
	return keys.Envelope{Ciphertext: append([]byte(nil), b[2:2+n]...)}, nil
}

// openEnvelope parses the envelope at the start of b and opens it with
// this node's key pair. Either path that carries one counts a refusal
// as gsi_issue_failed: a forged or damaged envelope is tamper.
func (e *Endpoint) openEnvelope(b []byte) (keys.SecretKey, error) {
	env, err := parseEnvelope(b)
	if err != nil {
		return keys.SecretKey{}, err
	}
	if e.cfg.KeyPair == nil {
		return keys.SecretKey{}, fmt.Errorf("transport: no key pair to open envelope")
	}
	return e.cfg.KeyPair.Open(env)
}

// handleGSI dispatches control messages arriving at QP 1.
func (e *Endpoint) handleGSI(d *fabric.Delivery) {
	p := d.Pkt
	if len(p.Payload) < gsiHeaderSize {
		e.Counters.Add(EpGSIMalformed, 1)
		return
	}
	msgType := p.Payload[0]
	qpA := packet.QPN(binary.BigEndian.Uint32(p.Payload[1:5]))
	qpB := packet.QPN(binary.BigEndian.Uint32(p.Payload[5:9]))
	rest := p.Payload[gsiHeaderSize:]
	e.Counters.Add(EpGSIReceived, 1)

	switch msgType {
	case gsiQKeyRequest:
		e.handleQKeyRequest(p.LRH.SLID, p.BTH.PKey, qpA, qpB)
	case gsiQKeyResponse:
		e.handleQKeyResponse(p.LRH.SLID, qpA, qpB, rest)
	case gsiRCConnectReq:
		e.handleRCConnectReq(p.LRH.SLID, p.BTH.PKey, qpA, qpB, rest)
	case gsiRCConnectAck:
		e.handleRCConnectAck(p.LRH.SLID, qpA, qpB)
	default:
		e.Counters.Add(EpGSIMalformed, 1)
	}
}

func (e *Endpoint) handleQKeyRequest(src packet.LID, pkey packet.PKey, reqQP, targetQPN packet.QPN) {
	target, ok := e.QPByNumber(targetQPN)
	if !ok || target.Service != packet.ServiceUD {
		e.Counters.Add(EpGSINoTarget, 1)
		return
	}
	payload := gsiHeader(gsiQKeyResponse, reqQP, targetQPN)
	var qk [4]byte
	binary.BigEndian.PutUint32(qk[:], uint32(target.QKey))
	payload = append(payload, qk[:]...)
	if e.cfg.KeyLevel == QPLevel {
		secret, env, err := e.issueFor(src)
		if err != nil {
			e.Counters.Add(EpGSIIssueFailed, 1)
			return
		}
		// "a secret key is generated at every Q_Key request" — indexed
		// at the issuer by (its Q_Key, the requester's QP).
		e.Store.InstallRecvQPSecret(target.QKey, src, reqQP, secret)
		payload = appendEnvelope(payload, env)
	} else {
		payload = append(payload, 0, 0)
	}
	e.sendGSI(src, pkey, payload)
}

func (e *Endpoint) handleQKeyResponse(src packet.LID, reqQP, targetQPN packet.QPN, rest []byte) {
	k := pendKey{reqQP, src}
	pending, ok := e.pendingQKey[k]
	if !ok || pending.target != targetQPN {
		e.Counters.Add(EpGSIUnexpected, 1)
		return
	}
	delete(e.pendingQKey, k)
	if len(rest) < 4 {
		pending.fail(fmt.Errorf("transport: truncated Q_Key response"))
		return
	}
	qkey := packet.QKey(binary.BigEndian.Uint32(rest[:4]))
	if e.cfg.KeyLevel == QPLevel {
		secret, err := e.openEnvelope(rest[4:])
		if err != nil {
			e.Counters.Add(EpGSIIssueFailed, 1)
			pending.fail(err)
			return
		}
		e.Store.InstallSendQPSecret(pending.q.N, src, targetQPN, secret)
	}
	e.Counters.Add(EpQKeyEstablished, 1)
	if pending.cb != nil {
		pending.cb(qkey, nil)
	}
}

func (r *qkeyRequest) fail(err error) {
	if r.cb != nil {
		r.cb(0, err)
	}
}

func (e *Endpoint) handleRCConnectReq(src packet.LID, pkey packet.PKey, initQP, targetQPN packet.QPN, rest []byte) {
	target, ok := e.QPByNumber(targetQPN)
	if !ok || (target.Service != packet.ServiceRC && target.Service != packet.ServiceUC) {
		e.Counters.Add(EpGSINoTarget, 1)
		return
	}
	if e.cfg.KeyLevel == QPLevel {
		secret, err := e.openEnvelope(rest)
		if err != nil {
			e.Counters.Add(EpGSIIssueFailed, 1)
			return
		}
		e.Store.InstallSendQPSecret(targetQPN, src, initQP, secret)
	}
	target.RemoteLID = src
	target.RemoteQPN = initQP
	e.Counters.Add(EpRCAccepted, 1)
	e.sendGSI(src, pkey, gsiHeader(gsiRCConnectAck, initQP, targetQPN))
}

func (e *Endpoint) handleRCConnectAck(src packet.LID, initQP, targetQPN packet.QPN) {
	k := pendKey{initQP, src}
	pending, ok := e.pendingRC[k]
	if !ok || pending.target != targetQPN {
		e.Counters.Add(EpGSIUnexpected, 1)
		return
	}
	delete(e.pendingRC, k)
	pending.q.RemoteLID = src
	pending.q.RemoteQPN = targetQPN
	if e.cfg.KeyLevel == QPLevel {
		e.Store.InstallSendQPSecret(pending.q.N, src, targetQPN, pending.secret)
	}
	e.Counters.Add(EpRCEstablished, 1)
	if pending.cb != nil {
		pending.cb(nil)
	}
}
