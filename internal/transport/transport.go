// Package transport implements the IBA transport layer over the fabric
// model: queue pairs with Unreliable Datagram and Reliable Connection
// services, R_Key-checked RDMA writes into registered memory regions, and
// the paper's receive-side verification pipeline:
//
//	P_Key check (in the HCA) → Q_Key check (UD) → authentication-tag
//	check (when BTH.Resv8a names a MAC function) → optional PSN replay
//	check → delivery.
//
// Authentication tags are computed over the packet's ICRC-invariant
// region and stored in the ICRC field (paper section 5.1); secret keys
// are resolved through the partition-level or QP-level stores of the
// keys package (sections 4.2-4.3). QP-level keys are established in-band
// with a Q_Key request/response exchange on the General Service Interface
// (QP 1), which is what gives Figure 6 its one-round-trip key
// initialization cost.
package transport

import (
	"errors"
	"fmt"
	"io"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/metrics"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// KeyLevel selects the authentication-key management scheme.
type KeyLevel int

// Key management levels (paper sections 4.2 and 4.3).
const (
	PartitionLevel KeyLevel = iota
	QPLevel
)

func (l KeyLevel) String() string {
	if l == QPLevel {
		return "QP-level"
	}
	return "partition-level"
}

// Reserved queue pair numbers.
const (
	qpnSMI packet.QPN = 0 // subnet management interface
	qpnGSI packet.QPN = 1 // general services (key exchange lives here)
)

// Config parameterizes an Endpoint.
type Config struct {
	// Registry resolves authentication-function IDs; nil means no
	// authentication support.
	Registry *mac.Registry
	// AuthID is the function used to sign outgoing packets on QPs with
	// AuthRequired (0 = sign nothing).
	AuthID uint8
	// KeyLevel selects partition-level or QP-level secrets.
	KeyLevel KeyLevel
	// RNG supplies key-generation randomness.
	RNG io.Reader
	// Directory is the shared public-key directory; KeyPair is this
	// node's pair. Both are required for QP-level management.
	Directory *keys.Directory
	KeyPair   *keys.NodeKeyPair
	// NameOf maps a LID to the node name used in the Directory.
	NameOf func(packet.LID) string
	// RetryTimeout and MaxRetries tune RC retransmission; zero values
	// select the defaults (100 µs, 7 rounds).
	RetryTimeout sim.Time
	MaxRetries   int
	// EnableNAK turns on the two recovery refinements together:
	// responder-generated explicit NAKs (a PSN gap answers with a
	// sequence-error NAK, letting the requester recover
	// responder-clocked instead of waiting out RetryTimeout), and a
	// retry period that doubles after every quiet timeout, capped at
	// 8 × RetryTimeout. Off by default: the base protocol is
	// bit-for-bit unchanged.
	EnableNAK bool
}

// QP is one queue pair.
type QP struct {
	N       packet.QPN
	Service packet.Service
	PKey    packet.PKey
	QKey    packet.QKey // UD only

	// RC peer, set by ConnectRC.
	RemoteLID packet.LID
	RemoteQPN packet.QPN

	// APM alternate path, set by SetAlternatePath: AltLID is the peer's
	// alternate-path address; after MigrateAfter consecutive quiet retry
	// periods the requester migrates onto it.
	AltLID       packet.LID
	MigrateAfter int

	// AuthRequired turns the paper's on-demand authentication on for
	// this QP: outgoing packets are signed and unsigned arrivals are
	// rejected.
	AuthRequired bool
	// ReplayProtect turns the PSN replay check (the paper's section-7
	// nonce extension) on for this UD QP: an arrival whose PSN is not
	// above the floor recorded for its (source LID, source QP) is
	// dropped. Authentication alone accepts a verbatim resend.
	ReplayProtect bool

	// OnRecv delivers verified payloads.
	OnRecv func(payload []byte, src packet.LID, srcQP packet.QPN)

	psn     uint32
	lastPSN map[uint64]uint32 // replay floor per remote (lid, qp); made by its first entry
	rcs     *rcState          // RC reliability state
}

// nextPSN returns and advances the send PSN (24-bit wraparound).
func (q *QP) nextPSN() uint32 {
	p := q.psn
	q.psn = (q.psn + 1) & 0xFFFFFF
	return p
}

// MemoryRegion is a registered buffer remotely writable via its R_Key.
type MemoryRegion struct {
	VA   uint64
	Data []byte
	RKey packet.RKey
}

// Endpoint is the per-node transport layer bound to one HCA.
type Endpoint struct {
	hca *fabric.HCA
	cfg Config
	// qps[i] is QP number firstQPN+i; the first QP the endpoint
	// creates is qp0, held in the endpoint itself.
	qps []*QP
	qp0 QP

	Store   *keys.Store
	regions map[packet.RKey]*MemoryRegion
	nextVA  uint64

	// The maps are made by their first entry.
	pendingQKey map[pendKey]*qkeyRequest // keyed by (requester QP, peer LID)
	pendingRC   map[pendKey]*rcRequest
	// pendingReads holds outstanding RDMA read callbacks by request PSN.
	pendingReads map[uint32]func([]byte)
	// copies holds the RC retransmit copies no request is using (keep,
	// drop).
	copies []*pendingSend

	Counters metrics.Set[EndpointCounter]
	ctr      [numEndpointCounters]uint64 // Counters' cells

	// Storm, when non-nil, receives one event per RC retransmission
	// (timestamped in microseconds) so experiments can report the peak
	// retransmission rate a recovery policy produces.
	Storm *metrics.Storm

	// verif holds the scratch buffer the MAC's invariant region is masked
	// into, shared by a fabric's endpoints (NewEndpoints): a simulation is
	// one goroutine, and the region is used before any other endpoint
	// runs, but simulations run concurrently under the experiment runner,
	// so fabrics share none.
	verif *icrc.Verifier
}

// firstQPN is the first QP number an endpoint allocates: 0 and 1 are
// reserved.
const firstQPN packet.QPN = 2

// newMessage draws a message of the given class with a zeroed n-byte
// payload window from the fabric's free list (fabric.Params.NewMessage),
// addressed from this endpoint's HCA; the caller fills in headers and
// payload, seals it and hands it to e.hca.Send.
func (e *Endpoint) newMessage(class fabric.Class, dlid packet.LID, bth packet.BTH, n int) *fabric.Delivery {
	d := e.hca.Params().NewMessage(class, packet.LRH{SLID: e.hca.LID(), DLID: dlid}, bth, n)
	d.Source = e.hca.Name()
	return d
}

// Errors returned by transport operations.
var (
	ErrNotUD       = errors.New("transport: operation requires a UD QP")
	ErrNotRC       = errors.New("transport: operation requires a connected RC QP")
	ErrPayloadSize = errors.New("transport: payload exceeds MTU")
	ErrNoKey       = errors.New("transport: no secret key installed for destination")
	ErrNoAuthFn    = errors.New("transport: auth function not in registry")
)

// NewEndpoint builds the transport layer for an HCA and wires its
// delivery callback.
func NewEndpoint(hca *fabric.HCA, cfg Config) *Endpoint {
	e := &Endpoint{}
	e.init(hca, cfg, keys.NewStore(), new(icrc.Verifier))
	hca.OnDeliver = e.Deliver
	return e
}

// NewEndpoints builds the transport layer for every HCA of a fabric —
// hcas is the fabric's HCA list, hcas[i] node i — as one allocation per
// kind: the endpoints, their key stores, the slots of their first QPs and
// one invariant-region scratch they share. keyPairs, when non-nil, sets each endpoint's
// Config.KeyPair. Every HCA's delivery callback is one function that
// hands a delivery to the endpoint of the node it was delivered to.
func NewEndpoints(hcas []*fabric.HCA, cfg Config, keyPairs []*keys.NodeKeyPair) []*Endpoint {
	eps := make([]Endpoint, len(hcas))
	out := make([]*Endpoint, len(hcas))
	stores := keys.NewStores(len(hcas))
	qps := make([]*QP, len(hcas))
	verif := new(icrc.Verifier)
	for i, hca := range hcas {
		if hca.Node() != i {
			panic(fmt.Sprintf("transport: HCA %s is node %d, not %d", hca.Name(), hca.Node(), i))
		}
		if keyPairs != nil {
			cfg.KeyPair = keyPairs[i]
		}
		eps[i].init(hca, cfg, &stores[i], verif)
		eps[i].qps = qps[i : i : i+1]
		out[i] = &eps[i]
	}
	deliver := func(d *fabric.Delivery) { out[d.DeliveredTo].Deliver(d) }
	for _, hca := range hcas {
		hca.OnDeliver = deliver
	}
	return out
}

// init sets up an endpoint in place.
func (e *Endpoint) init(hca *fabric.HCA, cfg Config, store *keys.Store, verif *icrc.Verifier) {
	if cfg.NameOf == nil {
		cfg.NameOf = func(lid packet.LID) string { return fmt.Sprintf("hca%d", int(lid)-1) }
	}
	*e = Endpoint{hca: hca, cfg: cfg, Store: store, nextVA: 0x1000, verif: verif}
	e.Counters.Bind(&endpointCounters, e.ctr[:])
}

// HCA returns the endpoint's channel adapter.
func (e *Endpoint) HCA() *fabric.HCA { return e.hca }

// CreateUDQP allocates an Unreliable Datagram QP in the given partition
// with the given Q_Key.
func (e *Endpoint) CreateUDQP(pkey packet.PKey, qkey packet.QKey) *QP {
	return e.createQP(packet.ServiceUD, pkey, qkey)
}

// CreateRCQP allocates a Reliable Connection QP in the given partition.
// It must be connected with ConnectRC before use.
func (e *Endpoint) CreateRCQP(pkey packet.PKey) *QP {
	return e.createQP(packet.ServiceRC, pkey, 0)
}

// createQP allocates the endpoint's next QP number to a QP of the given
// service.
func (e *Endpoint) createQP(svc packet.Service, pkey packet.PKey, qkey packet.QKey) *QP {
	var q *QP
	if len(e.qps) == 0 {
		q = &e.qp0
	} else {
		q = new(QP)
	}
	*q = QP{
		N:       firstQPN + packet.QPN(len(e.qps)),
		Service: svc,
		PKey:    pkey,
		QKey:    qkey,
	}
	e.qps = append(e.qps, q)
	return q
}

// QPByNumber returns a QP by number.
func (e *Endpoint) QPByNumber(n packet.QPN) (*QP, bool) {
	if i := uint(n - firstQPN); i < uint(len(e.qps)) {
		return e.qps[i], true
	}
	return nil, false
}

// RegisterMemory registers size bytes and returns the region with a
// fresh R_Key (IBA 10.6). The VA space is per-endpoint.
func (e *Endpoint) RegisterMemory(size int) *MemoryRegion {
	r := &MemoryRegion{
		VA:   e.nextVA,
		Data: make([]byte, size),
		RKey: packet.RKey(0x20000 + uint32(len(e.regions))),
	}
	e.nextVA += uint64(size) + 0x1000
	if e.regions == nil {
		e.regions = make(map[packet.RKey]*MemoryRegion)
	}
	e.regions[r.RKey] = r
	return r
}

// signingKey resolves the secret for an outgoing packet.
func (e *Endpoint) signingKey(q *QP, dstLID packet.LID, dstQPN packet.QPN) (*keys.SecretKey, error) {
	if e.cfg.KeyLevel == PartitionLevel {
		if k, ok := e.Store.PartitionSecret(q.PKey); ok {
			return k, nil
		}
		return nil, fmt.Errorf("%w: partition %#x", ErrNoKey, q.PKey.Base())
	}
	if k, ok := e.Store.SendQPSecret(q.N, dstLID, dstQPN); ok {
		return k, nil
	}
	return nil, fmt.Errorf("%w: QP pair %d->%d", ErrNoKey, q.N, dstQPN)
}

// verifyKey resolves the secret for an arriving packet.
func (e *Endpoint) verifyKey(q *QP, p *packet.Packet) (*keys.SecretKey, bool) {
	if e.cfg.KeyLevel == PartitionLevel {
		return e.Store.PartitionSecret(p.BTH.PKey)
	}
	if q.Service == packet.ServiceUD && p.DETH != nil {
		return e.Store.RecvQPSecret(p.DETH.QKey, p.LRH.SLID, p.DETH.SrcQP)
	}
	// RC: the pair secret is symmetric, stored under (local, remote).
	return e.Store.SendQPSecret(q.N, q.RemoteLID, q.RemoteQPN)
}

// seal finalizes, optionally signs, and CRC-protects a packet. It is the
// one writer of a fresh packet's wire image: the image is serialized once
// (in place, around the payload the caller built in it), a tag patched
// into its trailer, and the CRCs it still needs left owed (icrc.Seal,
// icrc.PatchVCRC).
func (e *Endpoint) seal(p *packet.Packet, q *QP, dstLID packet.LID, dstQPN packet.QPN, srcQP packet.QPN) error {
	sign := q.AuthRequired && e.cfg.AuthID != 0
	if !sign {
		p.BTH.AuthID = 0
		return icrc.Seal(p)
	}
	a, ok := e.cfg.Registry.Lookup(e.cfg.AuthID)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrNoAuthFn, e.cfg.AuthID)
	}
	key, err := e.signingKey(q, dstLID, dstQPN)
	if err != nil {
		return err
	}
	p.BTH.AuthID = a.ID()
	if err := p.Finalize(); err != nil {
		return err
	}
	p.InvalidateWire()
	wire := p.Wire()
	region, err := e.verif.InvariantRegion(wire)
	if err != nil {
		return err
	}
	nonce := nonceFor(p.BTH.OpCode, srcQP, dstQPN, p.BTH.PSN)
	tag, err := a.Tag(key[:], region, nonce)
	if err != nil {
		return err
	}
	p.ICRC = tag
	e.Counters.Add(EpPacketsSigned, 1)
	// AuthID != 0: the ICRC field carries the tag and only the VCRC needs
	// computing, so patch the tag into the image built above instead of
	// marshalling a second time, and leave the VCRC owed. The patched
	// image stays installed as the packet's wire cache for every hop
	// downstream.
	off := len(wire) - packet.ICRCSize - packet.VCRCSize
	wire[off] = byte(tag >> 24)
	wire[off+1] = byte(tag >> 16)
	wire[off+2] = byte(tag >> 8)
	wire[off+3] = byte(tag)
	icrc.PatchVCRC(p)
	return nil
}

// sealMessage seals a message drawn with newMessage for sending from q; one
// that cannot be sealed is never sent, so its block goes back unsent.
func (e *Endpoint) sealMessage(d *fabric.Delivery, q *QP, dstLID packet.LID, dstQPN packet.QPN) error {
	err := e.seal(d.Pkt, q, dstLID, dstQPN, q.N)
	if err != nil {
		e.hca.Params().Discard(d)
	}
	return err
}

// SendUD sends payload from a UD QP to (dstLID, dstQPN), writing the
// destination's Q_Key into the DETH (the sender must have obtained it,
// e.g. via RequestQKey).
func (e *Endpoint) SendUD(q *QP, dstLID packet.LID, dstQPN packet.QPN, dstQKey packet.QKey, payload []byte, class fabric.Class) error {
	if q.Service != packet.ServiceUD {
		return ErrNotUD
	}
	if len(payload) > packet.MTU {
		return ErrPayloadSize
	}
	d := e.newMessage(class, dstLID, packet.BTH{OpCode: packet.UDSendOnly, PKey: q.PKey, DestQP: dstQPN, PSN: q.nextPSN()}, len(payload))
	*d.Pkt.DETH = packet.DETH{QKey: dstQKey, SrcQP: q.N}
	copy(d.Pkt.Payload, payload)
	if err := e.sealMessage(d, q, dstLID, dstQPN); err != nil {
		return err
	}
	e.Counters.Add(EpUDSent, 1)
	e.hca.Send(d)
	return nil
}

// SendRC sends payload over a connected RC QP.
func (e *Endpoint) SendRC(q *QP, payload []byte, class fabric.Class) error {
	if q.Service != packet.ServiceRC || q.RemoteLID == 0 {
		return ErrNotRC
	}
	if len(payload) > packet.MTU {
		return ErrPayloadSize
	}
	d := e.newMessage(class, q.dataDLID(), packet.BTH{OpCode: packet.RCSendOnly, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: q.nextPSN()}, len(payload))
	copy(d.Pkt.Payload, payload)
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		return err
	}
	e.trackReliable(q, d.Pkt, class)
	e.Counters.Add(EpRCSent, 1)
	e.hca.Send(d)
	return nil
}

// RDMAWrite issues an RDMA write over a connected RC QP into the remote
// region identified by (va, rkey). The destination QP's consumer is not
// involved — which is exactly the paper's R_Key threat surface.
func (e *Endpoint) RDMAWrite(q *QP, va uint64, rkey packet.RKey, payload []byte, class fabric.Class) error {
	if q.Service != packet.ServiceRC || q.RemoteLID == 0 {
		return ErrNotRC
	}
	if len(payload) > packet.MTU {
		return ErrPayloadSize
	}
	d := e.newMessage(class, q.dataDLID(), packet.BTH{OpCode: packet.RCRDMAWriteOnly, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: q.nextPSN()}, len(payload))
	*d.Pkt.RETH = packet.RETH{VA: va, RKey: rkey, DMALen: uint32(len(payload))}
	copy(d.Pkt.Payload, payload)
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		return err
	}
	e.trackReliable(q, d.Pkt, class)
	e.Counters.Add(EpRDMASent, 1)
	e.hca.Send(d)
	return nil
}

// Deliver is the HCA delivery upcall: the receive verification pipeline.
func (e *Endpoint) Deliver(d *fabric.Delivery) {
	p := d.Pkt
	if p.BTH.DestQP == qpnGSI {
		e.handleGSI(d)
		return
	}
	q, ok := e.QPByNumber(p.BTH.DestQP)
	if !ok {
		e.Counters.Add(EpDropNoQP, 1)
		return
	}

	// Q_Key check (UD only): "A datagram QP only accepts packets that
	// have a legitimate Q_Key" (section 4.3).
	if q.Service == packet.ServiceUD {
		if p.DETH == nil || p.DETH.QKey != q.QKey {
			e.Counters.Add(EpQKeyViolations, 1)
			return
		}
	}

	// Authentication-tag check.
	if !e.verifyAuth(q, d) {
		return
	}

	// Replay check (optional extension; RC duplicates are handled by
	// the reliability protocol's PSN ordering instead).
	if q.ReplayProtect && q.Service == packet.ServiceUD && !e.replayOK(q, p) {
		e.Counters.Add(EpReplayDrops, 1)
		return
	}

	// RC reliability: acknowledgements complete requester state; data
	// packets pass the responder's in-order check before delivery.
	if p.BTH.OpCode == packet.RCAck {
		if p.AETH != nil {
			e.handleRCAck(q, p)
		}
		return
	}
	if p.BTH.OpCode == packet.RCRDMAReadRespO {
		if p.AETH != nil {
			e.handleRDMAReadResp(q, p)
		}
		return
	}
	if q.Service == packet.ServiceRC {
		if !e.handleRCRequest(q, p, d) {
			return
		}
	}

	switch p.BTH.OpCode {
	case packet.RCRDMAWriteOnly:
		e.applyRDMAWrite(p)
	case packet.RCRDMAReadReq:
		e.handleRDMAReadReq(q, p)
	case packet.UDSendOnly, packet.UDSendOnlyImm, packet.RCSendOnly, packet.UCSendOnly:
		e.Counters.Add(EpDelivered, 1)
		if q.OnRecv != nil {
			src, srcQP := p.LRH.SLID, packet.QPN(0)
			if p.DETH != nil {
				srcQP = p.DETH.SrcQP
			} else if q.Service == packet.ServiceRC || q.Service == packet.ServiceUC {
				srcQP = q.RemoteQPN
			}
			q.OnRecv(p.Payload, src, srcQP)
		}
	default:
		e.Counters.Add(EpDropUnhandledOpcode, 1)
	}
}

// nonceFor builds the per-packet MAC nonce. The opcode is folded into
// the top byte so that a data packet and its acknowledgement — which can
// share (srcQP, dstQP, PSN) when both endpoints allocated the same QP
// number — never authenticate under the same nonce.
func nonceFor(op packet.OpCode, srcQP, dstQP packet.QPN, psn uint32) uint64 {
	return keys.Nonce(srcQP, dstQP, psn) ^ uint64(op)<<56
}

// verifyAuth enforces the on-demand authentication policy and checks the
// tag in the ICRC field.
func (e *Endpoint) verifyAuth(q *QP, d *fabric.Delivery) bool {
	p := d.Pkt
	if p.BTH.AuthID == 0 {
		if q.AuthRequired {
			// Policy: this QP only accepts authenticated traffic.
			e.Counters.Add(EpAuthMissing, 1)
			return false
		}
		return true // legacy ICRC packet, nothing to verify here
	}
	if e.cfg.Registry == nil {
		e.Counters.Add(EpAuthUnsupported, 1)
		return false
	}
	a, ok := e.cfg.Registry.Lookup(p.BTH.AuthID)
	if !ok {
		e.Counters.Add(EpAuthUnsupported, 1)
		return false
	}
	if e.cfg.KeyLevel == PartitionLevel {
		return e.verifyPartitionAuth(a, q, p)
	}
	key, ok := e.verifyKey(q, p)
	if !ok {
		e.Counters.Add(EpAuthNoKey, 1)
		return false
	}
	region, err := e.verif.InvariantRegion(p.Image())
	if err != nil {
		e.Counters.Add(EpAuthFail, 1)
		return false
	}
	nonce := nonceFor(p.BTH.OpCode, e.peerQPN(q, p), q.N, p.BTH.PSN)
	valid, err := mac.Verify(a, key[:], region, nonce, p.ICRC)
	if err != nil || !valid {
		e.Counters.Add(EpAuthFail, 1)
		return false
	}
	e.Counters.Add(EpAuthOK, 1)
	return true
}

// verifyPartitionAuth checks a tag under the partition's epoch-tagged
// secrets: the current epoch, then — while a rotation grace window is
// open — the previous epoch (counted separately as auth_ok_grace). A tag
// that only verifies under the retired epoch is a grace-window miss and
// is rejected under its own counter, auth_epoch_expired, so sweeps can
// tell stale-key traffic from forgeries. With rotation disabled only the
// single epoch-0 key exists and this is behaviourally identical to the
// pre-epoch path.
func (e *Endpoint) verifyPartitionAuth(a mac.Authenticator, q *QP, p *packet.Packet) bool {
	cur, prev, ok := e.Store.PartitionVerifyKeys(p.BTH.PKey)
	if !ok {
		e.Counters.Add(EpAuthNoKey, 1)
		return false
	}
	region, err := e.verif.InvariantRegion(p.Image())
	if err != nil {
		e.Counters.Add(EpAuthFail, 1)
		return false
	}
	nonce := nonceFor(p.BTH.OpCode, e.peerQPN(q, p), q.N, p.BTH.PSN)
	valid, err := mac.Verify(a, cur.Key[:], region, nonce, p.ICRC)
	if err != nil {
		e.Counters.Add(EpAuthFail, 1)
		return false
	}
	if valid {
		e.Counters.Add(EpAuthOK, 1)
		return true
	}
	if prev != nil {
		if valid, _ = mac.Verify(a, prev.Key[:], region, nonce, p.ICRC); valid {
			e.Counters.Add(EpAuthOK, 1)
			e.Counters.Add(EpAuthOKGrace, 1)
			return true
		}
	}
	// Index the tombstones: a range copy's Key would escape to mac.Verify,
	// one allocation per epoch tried.
	rets := e.Store.RetiredPartitionKeys(p.BTH.PKey)
	for i := range rets {
		if valid, _ = mac.Verify(a, rets[i].Key[:], region, nonce, p.ICRC); valid {
			e.Counters.Add(EpAuthEpochExpired, 1)
			return false
		}
	}
	e.Counters.Add(EpAuthFail, 1)
	return false
}

// peerQPN resolves the nonce's source-QP component for an arriving
// packet: the DETH source for datagrams, the connected remote for RC/UC.
func (e *Endpoint) peerQPN(q *QP, p *packet.Packet) packet.QPN {
	if p.DETH != nil {
		return p.DETH.SrcQP
	}
	if q.Service == packet.ServiceRC || q.Service == packet.ServiceUC {
		return q.RemoteQPN
	}
	return 0
}

// replayOK updates the per-source PSN floor and rejects non-advancing
// PSNs.
func (e *Endpoint) replayOK(q *QP, p *packet.Packet) bool {
	srcQP := packet.QPN(0)
	if p.DETH != nil {
		srcQP = p.DETH.SrcQP
	}
	key := uint64(p.LRH.SLID)<<24 | uint64(srcQP)
	last, seen := q.lastPSN[key]
	if seen && p.BTH.PSN <= last {
		return false
	}
	if q.lastPSN == nil {
		q.lastPSN = make(map[uint64]uint32)
	}
	q.lastPSN[key] = p.BTH.PSN
	return true
}

// applyRDMAWrite validates the R_Key and bounds, then writes payload into
// the registered region.
func (e *Endpoint) applyRDMAWrite(p *packet.Packet) {
	r, ok := e.regions[p.RETH.RKey]
	if !ok {
		e.Counters.Add(EpRKeyViolations, 1)
		return
	}
	off := p.RETH.VA - r.VA
	if p.RETH.VA < r.VA || off+uint64(len(p.Payload)) > uint64(len(r.Data)) {
		e.Counters.Add(EpRDMABoundsViolations, 1)
		return
	}
	copy(r.Data[off:], p.Payload)
	e.Counters.Add(EpRDMAWrites, 1)
}
