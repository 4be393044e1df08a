package transport

import (
	"bytes"
	"fmt"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// enableNAK turns on explicit-NAK recovery on every endpoint of a world.
func enableNAK(w *world) {
	for _, ep := range w.eps {
		ep.cfg.EnableNAK = true
	}
}

// An explicit NAK turns loss recovery responder-clocked: the gap is
// reported by the first out-of-order arrival, so the head is
// retransmitted in link time instead of after a full retry period.
func TestRCNakRecoversFasterThanTimeout(t *testing.T) {
	run := func(nak bool) (recovery sim.Time, w *world, a *QP) {
		w = newWorld(t, 0, PartitionLevel)
		if nak {
			enableNAK(w)
		}
		var b *QP
		a, b = connectRC(t, w, false)
		var got []string
		var doneAt sim.Time
		b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) {
			got = append(got, string(p))
			doneAt = w.s.Now()
		}
		// Drop the third message (PSN 2); m0/m1 establish gotAny so the
		// responder can name the last in-order PSN.
		w.mesh.SwitchOf(0).SetFilter(&dropPSNFilter{psn: 2, remaining: 1})
		start := w.s.Now()
		for i := 0; i < 5; i++ {
			if err := w.eps[0].SendRC(a, []byte(fmt.Sprintf("m%d", i)), fabric.ClassBestEffort); err != nil {
				t.Fatal(err)
			}
		}
		w.s.Run()
		if len(got) != 5 {
			t.Fatalf("nak=%v delivered %d/5: %v", nak, len(got), got)
		}
		for i := range got {
			if got[i] != fmt.Sprintf("m%d", i) {
				t.Fatalf("nak=%v order broken: %v", nak, got)
			}
		}
		if a.Broken() {
			t.Fatalf("nak=%v connection broken", nak)
		}
		return doneAt - start, w, a
	}

	slow, base, _ := run(false)
	fast, nakw, nakQP := run(true)

	if base.eps[3].Counters.Value(EpRCNAKsSent) != 0 {
		t.Fatal("NAKs sent with EnableNAK off")
	}
	if n := nakw.eps[3].Counters.Value(EpRCNAKsSent); n != 1 {
		t.Fatalf("naks sent = %d, want 1 (one per gap episode, coalesced)", n)
	}
	if n := nakw.eps[0].Counters.Value(EpRCNAKsReceived); n != 1 {
		t.Fatalf("naks received = %d", n)
	}
	// m3 and m4 both arrived out of order, but only the first drew a NAK.
	if ooo := nakw.eps[3].Counters.Value(EpRCOutOfOrder); ooo != 2 {
		t.Fatalf("out of order = %d, want 2", ooo)
	}
	if slow < defaultRetryTimeout {
		t.Fatalf("timeout-only recovery took %v, expected at least one retry period (%v)", slow, defaultRetryTimeout)
	}
	if fast >= defaultRetryTimeout {
		t.Fatalf("NAK recovery took %v, expected well under the retry period (%v)", fast, defaultRetryTimeout)
	}
	// NAK-clocked retransmission must not consume the timeout retry budget.
	if r := nakQP.rc().retries; r != 0 {
		t.Fatalf("NAK recovery consumed %d timeout retries", r)
	}
}

// retryDelay doubles per quiet timeout and saturates at the cap.
func TestRCBackoffGrowsAndCaps(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	ep := w.eps[0]
	ep.cfg.RetryTimeout = 10 * sim.Microsecond
	a, _ := connectRC(t, w, false)
	st := a.rc()

	// Backoff off: constant period no matter the retry count.
	st.retries = 5
	if d := ep.retryDelay(a); d != 10*sim.Microsecond {
		t.Fatalf("backoff off: delay = %v", d)
	}

	ep.cfg.EnableNAK = true
	// The cap is backoffCapFactor x base.
	for _, c := range []struct {
		retries int
		want    sim.Time
	}{
		{0, 10 * sim.Microsecond},
		{1, 20 * sim.Microsecond},
		{2, 40 * sim.Microsecond},
		{3, 80 * sim.Microsecond},
		{4, 80 * sim.Microsecond},
		{20, 80 * sim.Microsecond},
	} {
		st.retries = c.retries
		if d := ep.retryDelay(a); d != c.want {
			t.Errorf("retries=%d: delay = %v, want %v", c.retries, d, c.want)
		}
	}
}

// End to end: with backoff the same retry budget probes a dead path over
// a longer horizon, so the break happens later than at a fixed period.
func TestRCBackoffStretchesRetryHorizon(t *testing.T) {
	run := func(backoff bool) sim.Time {
		w := newWorld(t, 0, PartitionLevel)
		w.eps[0].cfg.RetryTimeout = 10 * sim.Microsecond
		w.eps[0].cfg.MaxRetries = 3
		w.eps[0].cfg.EnableNAK = backoff
		a, _ := connectRC(t, w, false)
		w.mesh.SwitchOf(0).SetFilter(&dropFilter{remaining: 1 << 30})
		start := w.s.Now()
		if err := w.eps[0].SendRC(a, []byte("doomed"), fabric.ClassBestEffort); err != nil {
			t.Fatal(err)
		}
		w.s.Run()
		if !a.Broken() {
			t.Fatalf("backoff=%v: connection not broken", backoff)
		}
		if got := w.eps[0].Counters.Value(EpRCRetransmissions); got != 3 {
			t.Fatalf("backoff=%v: retransmissions = %d, want 3", backoff, got)
		}
		return w.s.Now() - start
	}
	fixed := run(false)
	stretched := run(true)
	if stretched <= fixed {
		t.Fatalf("backoff horizon %v not longer than fixed %v", stretched, fixed)
	}
}

// lidDropFilter blackholes non-ACK packets addressed to one LID —
// a primary path failure that leaves the alternate route intact.
type lidDropFilter struct {
	dlid packet.LID
}

func (f *lidDropFilter) Inspect(_ *fabric.Switch, _ int, _ bool, d *fabric.Delivery) (bool, sim.Time) {
	if d.Pkt.LRH.DLID == f.dlid && d.Pkt.BTH.OpCode != packet.RCAck {
		return true, 0
	}
	return false, 0
}

// APM end to end: after MigrateAfter quiet periods the requester fails
// over to the alternate LID, traffic completes there, and a rearm
// returns it to the healed primary.
func TestRCAPMMigratesAndRearms(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	w.mesh.ProgramAlternatePaths()
	w.eps[0].cfg.RetryTimeout = 10 * sim.Microsecond
	a, b := connectRC(t, w, false)
	a.SetAlternatePath(topology.AltLIDOf(3), 2)
	var got []string
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append(got, string(p)) }

	// Kill the primary: node 0's switch drops data addressed to LID(3);
	// the Y-then-X alternate to AltLIDOf(3) does not match.
	w.mesh.SwitchOf(0).SetFilter(&lidDropFilter{dlid: topology.LIDOf(3)})

	if err := w.eps[0].SendRC(a, []byte("via alt"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()

	if len(got) != 1 || got[0] != "via alt" {
		t.Fatalf("deliveries = %v", got)
	}
	if !a.rcs.migrated {
		t.Fatal("QP did not migrate")
	}
	if a.Broken() {
		t.Fatal("connection broken despite alternate path")
	}
	if w.eps[0].Counters.Value(EpRCMigrations) != 1 {
		t.Fatalf("rc_migrations = %d", w.eps[0].Counters.Value(EpRCMigrations))
	}
	if w.mesh.HCA(3).Counters.Value(fabric.HCAAltLIDArrivals) == 0 {
		t.Fatal("no arrivals on the alternate LID")
	}

	// Primary heals; the SM-driven rearm returns the QP to Armed and new
	// sends go back to the primary LID.
	w.mesh.SwitchOf(0).SetFilter(nil)
	w.eps[0].RearmAll()
	if a.rcs.migrated {
		t.Fatal("QP still migrated after rearm")
	}
	if w.eps[0].Counters.Value(EpRCRearms) != 1 {
		t.Fatalf("rc_rearms = %d", w.eps[0].Counters.Value(EpRCRearms))
	}
	altBefore := w.mesh.HCA(3).Counters.Value(fabric.HCAAltLIDArrivals)
	if err := w.eps[0].SendRC(a, []byte("back on primary"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()
	if len(got) != 2 || got[1] != "back on primary" {
		t.Fatalf("deliveries after rearm = %v", got)
	}
	if w.mesh.HCA(3).Counters.Value(fabric.HCAAltLIDArrivals) != altBefore {
		t.Fatal("post-rearm traffic still used the alternate LID")
	}
	// Migration recovery must not have counted against rc_broken.
	if w.eps[0].Counters.Value(EpRCBroken) != 0 {
		t.Fatal("rc_broken counted")
	}
}

// A migrated retransmission is re-sealed, so authenticated RC still
// verifies when the DLID — inside the MAC-covered invariant region —
// changes under it.
func TestRCAPMMigratedResealAuthenticated(t *testing.T) {
	w := newWorld(t, mac.IDUMAC32, QPLevel)
	w.mesh.ProgramAlternatePaths()
	w.eps[0].cfg.RetryTimeout = 10 * sim.Microsecond
	a, b := connectRC(t, w, true)
	a.SetAlternatePath(topology.AltLIDOf(3), 2)
	var got []byte
	b.OnRecv = func(p []byte, _ packet.LID, _ packet.QPN) { got = append([]byte(nil), p...) }
	w.mesh.SwitchOf(0).SetFilter(&lidDropFilter{dlid: topology.LIDOf(3)})

	if err := w.eps[0].SendRC(a, []byte("signed detour"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	w.s.Run()

	if !bytes.Equal(got, []byte("signed detour")) {
		t.Fatalf("payload %q (reseal after DLID rewrite broken?)", got)
	}
	if !a.rcs.migrated {
		t.Fatal("QP did not migrate")
	}
	if w.eps[3].Counters.Value(EpAuthFail) != 0 {
		t.Fatalf("auth_fail = %d on migrated retransmission", w.eps[3].Counters.Value(EpAuthFail))
	}
	if w.eps[0].Counters.Value(EpRCResealFailed) != 0 {
		t.Fatal("reseal failed")
	}
}

// A retry timeout that coincides with window progress must re-arm
// strictly in the future — a zero-delay re-arm would re-enter the
// handler at the same timestamp forever.
func TestRCRetryRearmStrictlyFuture(t *testing.T) {
	w := newWorld(t, 0, PartitionLevel)
	ep := w.eps[0]
	ep.cfg.RetryTimeout = 10 * sim.Microsecond
	a, _ := connectRC(t, w, false)
	w.mesh.SwitchOf(0).SetFilter(&dropFilter{remaining: 1 << 30})
	if err := ep.SendRC(a, []byte("x"), fabric.ClassBestEffort); err != nil {
		t.Fatal(err)
	}
	st := a.rc()

	// Invoke the handler the way its timer would, at instants where the
	// window progressed 0 .. retryDelay ticks ago. Every re-arm must land
	// strictly after now (the clamp in onRetryTimeout guards the
	// degenerate delay == 0 rounding), and offsets at or past the full
	// period must retransmit instead.
	for _, off := range []sim.Time{0, sim.Picosecond, 5 * sim.Microsecond, 10*sim.Microsecond - sim.Picosecond} {
		w.s.Cancel(st.retryTimer)
		st.retryTimer = sim.Event{}
		st.lastProgress = w.s.Now() - off
		before := ep.Counters.Value(EpRCRetransmissions)
		ep.onRetryTimeout(a)
		if got := ep.Counters.Value(EpRCRetransmissions); got != before {
			t.Fatalf("off=%v: retransmitted during a draining window", off)
		}
		if !st.retryTimer.Pending() {
			t.Fatalf("off=%v: no timer re-armed", off)
		}
		if st.retryTimer.At() <= w.s.Now() {
			t.Fatalf("off=%v: re-armed at %v, not strictly after now %v", off, st.retryTimer.At(), w.s.Now())
		}
	}

	// At exactly one full quiet period, the handler retransmits.
	w.s.Cancel(st.retryTimer)
	st.retryTimer = sim.Event{}
	st.lastProgress = w.s.Now() - 10*sim.Microsecond
	before := ep.Counters.Value(EpRCRetransmissions)
	ep.onRetryTimeout(a)
	if got := ep.Counters.Value(EpRCRetransmissions); got != before+1 {
		t.Fatal("full quiet period did not retransmit")
	}
	if !st.retryTimer.Pending() || st.retryTimer.At() <= w.s.Now() {
		t.Fatal("retransmission did not re-arm strictly in the future")
	}
	w.s.Cancel(st.retryTimer)
	w.s.Run()
}
