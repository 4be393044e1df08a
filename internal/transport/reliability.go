package transport

import (
	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Reliable Connection delivery (IBA 9.7): every RC request carries a PSN;
// the responder delivers strictly in PSN order and returns cumulative
// acknowledgements. On timeout the requester retransmits the head of the
// unacknowledged window; once an acknowledgement shows the head advanced,
// recovery continues ACK-paced (each cumulative ACK releases the next
// head) until the window drains. Retransmitting only the head — rather
// than the whole window — keeps a long in-flight window from feeding a
// retransmission storm when the retry timeout is shorter than the
// window's serialization time. MaxRetries quiet periods with no progress
// mark the connection broken.
//
// The fabric itself is lossless (credit flow control), so retransmission
// matters exactly when something *discards* packets: partition
// enforcement, authentication failures, or injected corruption — which is
// how an attacker forging traffic against an authenticated QP shows up as
// a stalled, not corrupted, connection.
//
// Three IBA recovery mechanisms layer on top, off by default so the
// base protocol is bit-for-bit unchanged; Config.EnableNAK turns on the
// first two together:
//
//   - Explicit NAK: a responder that sees a PSN gap sends one NAK (AETH
//     syndrome 011) per gap episode naming the last in-order PSN. The
//     requester retransmits immediately instead of waiting out a full
//     retry period, and the NAK does not consume the transport retry
//     budget.
//   - Exponential backoff: the retry period doubles after every quiet
//     timeout, capped at backoffCapFactor times the base period, so a
//     dead path is probed at a decaying rate instead of a fixed one.
//   - Automatic Path Migration (QP.SetAlternatePath): after MigrateAfter
//     consecutive quiet timeouts the requester rewrites the head of the
//     window onto the pre-loaded alternate DLID and keeps sending there;
//     Rearm returns it to the primary once the SM reports the fabric
//     healed. Acknowledgements keep returning on the primary reverse
//     route: in a 2D DOR mesh the Y-then-X alternate from the responder
//     back would traverse exactly the links of the requester's broken
//     X-then-Y primary (see apm.go), so the reverse primary is already
//     the link-disjoint return path.

// Reliability tuning, part of Config.
const (
	defaultRetryTimeout = 100 * sim.Microsecond
	defaultMaxRetries   = 7
	// backoffCapFactor bounds the doubled retry period, as a multiple of
	// the base period.
	backoffCapFactor = 8
)

// rcState tracks one RC QP's requester and responder progress.
type rcState struct {
	// Requester side.
	unacked    []*pendingSend // PSN order
	retryTimer sim.Event
	retries    int
	broken     bool
	// lastProgress is when the window last advanced (send or ACK); a
	// timeout only retransmits when a full retry period elapsed with no
	// progress, so a long in-flight window does not trigger spurious
	// retransmissions.
	lastProgress sim.Time
	// recovering is set between a timeout retransmission and the window
	// draining; in this mode each cumulative ACK releases the next head
	// (the original copies behind a loss were dropped out-of-order at
	// the responder and must all be resent).
	recovering bool
	// consecTimeouts counts quiet retry periods since the last ACK
	// progress; reaching QP.MigrateAfter triggers path migration.
	consecTimeouts int
	// migrated is the APM state: false = Armed (primary path, alternate
	// loaded), true = Migrated (data and retransmissions go to AltLID).
	// Rearm returns to Armed.
	migrated bool
	// Responder side.
	ePSN uint32 // next expected PSN
	// gotAny records that at least one in-order request was delivered,
	// so (ePSN-1) names a real PSN that a duplicate or gap can be
	// re-acknowledged with. ePSN == 0 alone cannot distinguish a fresh
	// responder from one whose sequence wrapped past 0xFFFFFF.
	gotAny bool
	// nakSent coalesces explicit NAKs to one per gap episode: set when a
	// NAK goes out, cleared when ePSN next advances (IBA 9.7.5.2.4 —
	// further out-of-sequence arrivals in the same episode are dropped
	// silently).
	nakSent bool
}

// pendingSend is the copy of one unacknowledged RC request that
// retransmissions are drawn from: its wire image as sent, with the CRCs
// it owed settled. The copies come from the endpoint's pool (keep) and go
// back to it at the acknowledgement that retires them (drop).
type pendingSend struct {
	img   []byte
	psn   uint32
	class fabric.Class
}

// rc returns the QP's reliability state, allocating on first use.
func (q *QP) rc() *rcState {
	if q.rcs == nil {
		q.rcs = &rcState{}
	}
	return q.rcs
}

// Broken reports whether the RC connection gave up after exhausting
// retries.
func (q *QP) Broken() bool { return q.rcs != nil && q.rcs.broken }

// trackReliable registers an outgoing RC request for retransmission.
func (e *Endpoint) trackReliable(q *QP, p *packet.Packet, class fabric.Class) {
	st := q.rc()
	st.unacked = append(st.unacked, e.keep(p, class))
	if len(st.unacked) == 1 {
		// Window (re)opens: the clock measures time since the oldest
		// unacked request could first have been answered. Later sends
		// must not push the deadline, or a black-holed path with a
		// steady source would never time out.
		st.lastProgress = e.hca.Sim().Now()
	}
	e.armRetry(q)
}

// keep takes a copy of the sealed request p from the endpoint's pool. The
// copy reads p's image through Wire, which settles the CRCs it owes, so an
// RC send computes both at send time, as an eager seal did.
func (e *Endpoint) keep(p *packet.Packet, class fabric.Class) *pendingSend {
	var ps *pendingSend
	if n := len(e.copies); n > 0 {
		ps, e.copies = e.copies[n-1], e.copies[:n-1]
	} else {
		ps = new(pendingSend)
	}
	ps.img = append(ps.img[:0], p.Wire()...)
	ps.psn, ps.class = p.BTH.PSN, class
	return ps
}

// drop returns an acknowledged request's copy to the endpoint's pool. The
// poison build (-tags poolpoison) scribbles over the image and retires the
// copy instead, so a reader past the acknowledgement faults.
func (e *Endpoint) drop(ps *pendingSend) {
	if fabric.PoolPoison {
		for i := range ps.img {
			ps.img[i] = 0xDB
		}
		ps.img = nil
		return
	}
	e.copies = append(e.copies, ps)
}

// retryTimeout returns the configured or default base retry period.
func (e *Endpoint) retryTimeout() sim.Time {
	if e.cfg.RetryTimeout > 0 {
		return e.cfg.RetryTimeout
	}
	return defaultRetryTimeout
}

// retryDelay returns the current retry period for a QP: the base period,
// or — with EnableNAK — the base doubled per consecutive quiet
// timeout, capped at backoffCapFactor × base.
func (e *Endpoint) retryDelay(q *QP) sim.Time {
	base := e.retryTimeout()
	if !e.cfg.EnableNAK {
		return base
	}
	limit := backoffCapFactor * base
	st := q.rc()
	d := base
	for i := 0; i < st.retries && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	return d
}

// armRetry starts the retransmission timer if it is not running.
func (e *Endpoint) armRetry(q *QP) {
	st := q.rc()
	if st.retryTimer.Pending() {
		return
	}
	st.retryTimer = e.hca.Sim().ScheduleCall(e.retryDelay(q), (*retryDeadline)(e), q, 0)
}

// retryDeadline fires an RC QP's retransmission timer: a named handler
// type over Endpoint (see sim.Handler) whose operand is the QP, so arming
// the timer allocates nothing.
type retryDeadline Endpoint

func (h *retryDeadline) Fire(q any, _ uint64) { (*Endpoint)(h).onRetryTimeout(q.(*QP)) }

// onRetryTimeout retransmits the head of the unacknowledged window
// (go-back-N) if a full retry period passed with no window progress, and
// runs the APM migration check.
func (e *Endpoint) onRetryTimeout(q *QP) {
	st := q.rc()
	if len(st.unacked) == 0 || st.broken {
		return
	}
	now := e.hca.Sim().Now()
	if since := now - st.lastProgress; since < e.retryDelay(q) {
		// Progress happened recently: push the deadline out instead of
		// retransmitting a window that is still draining. Clamp to one
		// tick — lastProgress may coincide with the deadline, and a
		// zero-delay event would re-enter this handler in the same
		// timestamp.
		delay := e.retryDelay(q) - since
		if delay < sim.Picosecond {
			delay = sim.Picosecond
		}
		st.retryTimer = e.hca.Sim().ScheduleCall(delay, (*retryDeadline)(e), q, 0)
		return
	}
	maxRetries := e.cfg.MaxRetries
	if maxRetries <= 0 {
		maxRetries = defaultMaxRetries
	}
	st.retries++
	st.consecTimeouts++
	if st.retries > maxRetries {
		st.broken = true
		e.Counters.Add(EpRCBroken, 1)
		return
	}
	// APM: enough consecutive quiet periods prove the primary path dead;
	// fail over to the pre-loaded alternate with a fresh retry budget
	// (IBA 17.2.8: migration restarts the timeout sequence).
	if !st.migrated && q.AltLID != 0 && q.MigrateAfter > 0 && st.consecTimeouts >= q.MigrateAfter {
		st.migrated = true
		st.retries = 0
		e.Counters.Add(EpRCMigrations, 1)
	}
	st.recovering = true
	e.resendHead(q)
	e.armRetry(q)
}

// resendHead retransmits the oldest unacknowledged request, retargeting
// it onto the current path first.
func (e *Endpoint) resendHead(q *QP) {
	st := q.rc()
	if len(st.unacked) == 0 {
		return
	}
	ps := st.unacked[0]
	d := e.hca.Params().NewMessageImage(ps.class, ps.img)
	d.Source = e.hca.Name()
	p := d.Pkt
	if dlid := q.dataDLID(); p.LRH.DLID != dlid {
		// The DLID sits inside the ICRC/MAC-covered invariant region, so
		// a retransmission crossing a migration (or a rearm) must be
		// fully re-sealed, not just readdressed.
		p.LRH.DLID = dlid
		if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
			e.Counters.Add(EpRCResealFailed, 1)
			return
		}
	}
	e.Counters.Add(EpRCRetransmissions, 1)
	e.Counters.Add(EpRCRetransBytes, uint64(len(p.Payload)))
	if e.Storm != nil {
		e.Storm.Add(float64(e.hca.Sim().Now()) / float64(sim.Microsecond))
	}
	e.hca.Send(d)
}

// handleRCRequest runs the responder-side ordering check. It returns
// true when the packet is the next expected one and should be delivered;
// in every case it emits the appropriate acknowledgement (or NAK).
func (e *Endpoint) handleRCRequest(q *QP, p *packet.Packet, d *fabric.Delivery) bool {
	st := q.rc()
	switch {
	case p.BTH.PSN == st.ePSN:
		st.ePSN = (st.ePSN + 1) & 0xFFFFFF
		st.gotAny = true
		st.nakSent = false
		// An RDMA read is acknowledged by its response (IBA 9.7.5.1.5);
		// everything else gets an explicit cumulative ACK.
		if p.BTH.OpCode != packet.RCRDMAReadReq {
			e.sendAck(q, p.BTH.PSN, p.BTH.FECN)
		}
		return true
	case st.gotAny && psnBefore(p.BTH.PSN, st.ePSN):
		// Duplicate of an already-delivered request: re-acknowledge,
		// do not re-deliver.
		e.Counters.Add(EpRCDuplicates, 1)
		e.sendAck(q, (st.ePSN-1)&0xFFFFFF, p.BTH.FECN)
		return false
	default:
		// Gap (an earlier request was discarded en route): drop and tell
		// the requester to go back. With explicit NAKs enabled, one NAK
		// per gap episode triggers immediate retransmission; otherwise
		// re-acknowledge the last in-order PSN so the stock timeout path
		// still converges.
		e.Counters.Add(EpRCOutOfOrder, 1)
		if !st.gotAny {
			return false
		}
		if e.cfg.EnableNAK {
			if !st.nakSent {
				st.nakSent = true
				e.sendNakSeq(q, (st.ePSN-1)&0xFFFFFF)
			}
			return false
		}
		e.sendAck(q, (st.ePSN-1)&0xFFFFFF, p.BTH.FECN)
		return false
	}
}

// psnBefore reports whether a precedes b in 24-bit sequence space.
func psnBefore(a, b uint32) bool {
	return (b-a)&0xFFFFFF < 1<<23 && a != b
}

// sendAck emits a (possibly authenticated) cumulative acknowledgement
// for PSN psn. becn reflects a FECN-marked request back to the
// requester as a backward congestion notification (CC annex: RC flows
// piggyback BECN on the ACK stream instead of standalone CNPs).
func (e *Endpoint) sendAck(q *QP, psn uint32, becn bool) {
	e.sendAckSyndrome(q, psn, packet.AETHAck, EpRCAcksSent, becn)
}

// sendNakSeq emits a PSN-sequence-error NAK naming the last in-order
// PSN, so the requester goes back immediately instead of timing out.
func (e *Endpoint) sendNakSeq(q *QP, psn uint32) {
	e.sendAckSyndrome(q, psn, packet.AETHNAKSeq, EpRCNAKsSent, false)
}

// sendAckSyndrome builds, seals and sends one acknowledgement packet
// with the given AETH syndrome, counting it under counter. becn sets
// the backward-congestion-notification bit.
func (e *Endpoint) sendAckSyndrome(q *QP, psn uint32, syndrome uint8, counter EndpointCounter, becn bool) {
	if q.RemoteLID == 0 {
		return
	}
	d := e.newMessage(fabric.ClassBestEffort, q.RemoteLID, packet.BTH{OpCode: packet.RCAck, PKey: q.PKey, DestQP: q.RemoteQPN, PSN: psn, BECN: becn}, 0)
	*d.Pkt.AETH = packet.AETH{Syndrome: syndrome, MSN: psn}
	if err := e.sealMessage(d, q, q.RemoteLID, q.RemoteQPN); err != nil {
		e.Counters.Add(EpRCAckSealFailed, 1)
		return
	}
	if becn {
		e.Counters.Add(EpRCBECNSent, 1)
	}
	e.Counters.Add(counter, 1)
	e.hca.Send(d)
}

// handleRCAck processes an acknowledgement (or NAK) at the requester.
func (e *Endpoint) handleRCAck(q *QP, p *packet.Packet) {
	if p.BTH.BECN {
		// The responder saw our requests FECN-marked: bump the flow's
		// congestion-control-table index so injection slows at the source.
		e.Counters.Add(EpRCBECNReceived, 1)
		e.hca.NotifyBECN(p.LRH.SLID)
	}
	st := q.rc()
	acked := p.AETH.MSN
	kept := st.unacked[:0]
	for _, ps := range st.unacked {
		if psnBefore(ps.psn, (acked+1)&0xFFFFFF) {
			e.drop(ps)
		} else {
			kept = append(kept, ps)
		}
	}
	progressed := len(kept) < len(st.unacked)
	if progressed {
		st.retries = 0 // forward progress
		st.consecTimeouts = 0
		st.lastProgress = e.hca.Sim().Now()
	}
	st.unacked = kept
	e.Counters.Add(EpRCAcksReceived, 1)
	if p.AETH.IsNAK() {
		e.onSeqNak(q, st)
		return
	}
	if len(st.unacked) == 0 {
		st.recovering = false
		e.hca.Sim().Cancel(st.retryTimer)
		st.retryTimer = sim.Event{}
		return
	}
	// ACK-paced recovery: the responder discarded everything behind the
	// loss, so each advance releases the next head immediately instead
	// of waiting out another timeout.
	if progressed && st.recovering {
		e.resendHead(q)
	}
}

// onSeqNak handles an explicit sequence-error NAK: retransmit the head
// immediately. NAK-triggered retransmission is responder-clocked, so it
// does not consume the timeout retry budget.
func (e *Endpoint) onSeqNak(q *QP, st *rcState) {
	e.Counters.Add(EpRCNAKsReceived, 1)
	if len(st.unacked) == 0 || st.broken {
		return
	}
	st.recovering = true
	st.lastProgress = e.hca.Sim().Now()
	e.resendHead(q)
	e.armRetry(q)
}
