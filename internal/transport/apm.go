package transport

import "ibasec/internal/packet"

// Automatic Path Migration (IBA 17.2.8), simplified to the three-state
// machine the spec's state diagram reduces to for a pre-loaded path:
//
//	Armed ──(MigrateAfter consecutive quiet retry periods)──▶ Migrated
//	Migrated ──(Rearm: the SM reports the primary healed)──▶ Armed
//
// A QP enters Armed when SetAlternatePath loads an alternate DLID. In
// Migrated, new sends and retransmissions are addressed to the alternate
// LID (re-sealed, since the DLID is inside the authenticated invariant
// region) while the connection identity — remote QPN, keys, PSN space —
// is unchanged. The responder needs no migration state of its own:
// acknowledgements always return on the primary reverse route, because
// in a 2D dimension-ordered mesh the Y-then-X alternate from responder
// to requester traverses exactly the physical links of the requester's
// X-then-Y primary — the very path that just failed — whereas the
// X-then-Y reverse primary shares links with the requester's Y-then-X
// alternate, which migration just proved alive.

// SetAlternatePath loads an alternate path onto an RC QP and arms
// migration: after migrateAfter consecutive quiet retry periods the
// requester fails over to altLID.
func (q *QP) SetAlternatePath(altLID packet.LID, migrateAfter int) {
	q.AltLID = altLID
	q.MigrateAfter = migrateAfter
}

// dataDLID returns the address outgoing requests travel to: the
// alternate LID while migrated, the primary otherwise.
func (q *QP) dataDLID() packet.LID {
	if q.rcs != nil && q.rcs.migrated && q.AltLID != 0 {
		return q.AltLID
	}
	return q.RemoteLID
}

// RearmQP returns a migrated QP to its primary path (Armed state),
// typically when the SM's re-sweep reports the fabric healed. The
// migration trigger resets, so a still-broken primary simply migrates
// again after another MigrateAfter quiet periods.
func (e *Endpoint) RearmQP(q *QP) {
	st := q.rc()
	if !st.migrated {
		return
	}
	st.migrated = false
	st.consecTimeouts = 0
	e.Counters.Add(EpRCRearms, 1)
}

// RearmAll rearms every migrated RC QP on the endpoint.
func (e *Endpoint) RearmAll() {
	for _, q := range e.qps {
		if q.Service == packet.ServiceRC {
			e.RearmQP(q)
		}
	}
}
