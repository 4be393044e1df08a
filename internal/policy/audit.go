package policy

import (
	"ibasec/internal/enforce"
	"ibasec/internal/metrics"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
)

// Continuous drift auditing. Every period the auditor sweeps the
// switches with AuditState SMPs — one MAD per switch when nothing
// drifted, thanks to the digest comparison — and drills down with
// chunked AuditEntries reads only where a digest disagrees with the
// compiled intent. Confirmed divergence is raised as a DriftEvent with
// full attribution (which switch, which entries, intended vs observed)
// and, in repair mode, reversed entry by entry with M_Key-guarded
// AuditRepair Sets.
//
// The valid table is held to the intent exactly: an extra entry is a
// hole an attacker squeezes traffic through, a missing one silently
// blackholes a legitimate partition. Invalid_P_Key_Table and
// alternate-source registrations are held as minimums, because the SIF
// control loop legitimately adds entries at runtime; for those tables
// only missing intent entries are drift, and the digest of a verified
// superset is cached so the next sweep's mismatch costs no drill-down.

// DriftEvent is one detected divergence between a switch's programmed
// enforcement state and the compiled intent.
type DriftEvent struct {
	Switch     int
	DetectedAt sim.Time
	// ModeMismatch reports the switch answering with a different
	// enforcement mode than intended (detect-only; modes are programmed
	// at bring-up and have no entry-level repair).
	ModeMismatch bool
	// Inactive reports SIF filtering off where intent requires it on.
	Inactive bool
	// MissingValid/ExtraValid attribute valid-table drift; the other
	// two list intent entries absent from the observed tables.
	MissingValid   []uint16
	ExtraValid     []uint16
	MissingInvalid []uint16
	MissingAlt     []uint16
	// Repaired is set once every repair MAD for the event was
	// acknowledged; RepairedAt is when the last acknowledgement landed.
	Repaired   bool
	RepairedAt sim.Time
}

// drifted reports whether the event carries any actual divergence.
func (ev *DriftEvent) drifted() bool {
	return ev.ModeMismatch || ev.Inactive ||
		len(ev.MissingValid) > 0 || len(ev.ExtraValid) > 0 ||
		len(ev.MissingInvalid) > 0 || len(ev.MissingAlt) > 0
}

// AuditConfig tunes an Auditor.
type AuditConfig struct {
	// Period is the sweep interval; zero disables Start entirely.
	Period sim.Time
	// Repair applies AuditRepair Sets for every attributed divergence;
	// false detects and records only.
	Repair bool
}

// Auditor periodically verifies switch enforcement state against a
// compiled intent over the in-band audit SMP protocol. It shares the
// fabric with all other management traffic — audit MADs ride VL 15 with
// the Discoverer's retry/backoff — so its overhead is measurable, not
// assumed away.
type Auditor struct {
	sim    *sim.Simulator
	disc   *sm.Discoverer
	intent *Intent
	paths  [][]byte
	cfg    AuditConfig

	// Counters: audit_sweeps, audit_skipped (a period elapsed while the
	// previous sweep was still in flight), audit_mads (Get probes),
	// audit_unanswered (terminal timeouts), drift_events, repair_mads.
	Counters metrics.Set[AuditCounter]
	ctr      [numAuditCounters]uint64 // Counters' cells
	// Events accumulates every detected drift in detection order.
	Events []*DriftEvent
	// OnDrift, when non-nil, observes each event at detection time
	// (before any repair completes).
	OnDrift func(*DriftEvent)

	// digests[i] is intent.Switches[i]'s table digests.
	digests []auditDigests

	outstanding int
	auditing    bool
	stop        func()
}

// auditDigests are one switch's expected table digests, from the
// intent, and the last digests of its dynamic tables a drill-down found
// to be verified supersets of the intent (zero until one is).
type auditDigests struct {
	valid, invalid, alt uint32
	okInv, okAlt        uint32
}

// AuditCounter identifies one of an Auditor's counters.
type AuditCounter uint8

// The ids of an Auditor's counters, in name order.
const (
	AuditMADs AuditCounter = iota
	AuditSkipped
	AuditSweeps
	AuditUnanswered
	AuditDriftEvents
	AuditRepairMADs
	AuditRepairsCompleted
	numAuditCounters
)

// auditCounters names each id.
var auditCounters = metrics.Table{Set: "audit", Names: []string{
	AuditMADs:             "audit_mads",
	AuditSkipped:          "audit_skipped",
	AuditSweeps:           "audit_sweeps",
	AuditUnanswered:       "audit_unanswered",
	AuditDriftEvents:      "drift_events",
	AuditRepairMADs:       "repair_mads",
	AuditRepairsCompleted: "repairs_completed",
}}

// NewAuditor builds an auditor driving disc (which must be the
// auditor's own Discoverer — sharing the resweeper's would let its
// per-sweep Reset cancel audit probes mid-flight) along the given
// directed-route paths, by switch index (sm.SwitchPaths).
func NewAuditor(s *sim.Simulator, disc *sm.Discoverer, intent *Intent, paths [][]byte, cfg AuditConfig) *Auditor {
	a := &Auditor{
		sim:     s,
		disc:    disc,
		intent:  intent,
		paths:   paths,
		cfg:     cfg,
		digests: make([]auditDigests, len(intent.Switches)),
	}
	a.Counters.Bind(&auditCounters, a.ctr[:])
	for i := range intent.Switches {
		d := &a.digests[i]
		d.valid, d.invalid, d.alt = intent.Switches[i].Digests()
	}
	return a
}

// Start arms the periodic sweep; the first sweep runs one full period
// in, so bring-up traffic settles first. No-op when Period is zero.
func (a *Auditor) Start() {
	if a.cfg.Period <= 0 || a.stop != nil {
		return
	}
	a.stop = a.sim.Every(a.cfg.Period, a.tick)
}

// Stop cancels the periodic sweep (in-flight probes drain on their own).
func (a *Auditor) Stop() {
	if a.stop != nil {
		a.stop()
		a.stop = nil
	}
}

// Sweep runs one audit pass immediately (tests; Start drives it
// periodically).
func (a *Auditor) Sweep() { a.tick() }

func (a *Auditor) tick() {
	if a.auditing {
		a.Counters.Add(AuditSkipped, 1)
		return
	}
	a.auditing = true
	a.Counters.Add(AuditSweeps, 1)
	for i := range a.intent.Switches {
		path := a.paths[a.intent.Switches[i].Switch]
		if path == nil {
			continue
		}
		// One AuditState probe per switch, answered through stateProbe
		// under the switch's intent index.
		a.outstanding++
		a.Counters.Add(AuditMADs, 1)
		a.disc.Query(sm.MethodGet, sm.AttrAuditState, path, nil, (*stateProbe)(a), uint64(i))
	}
	if a.outstanding == 0 {
		a.auditing = false
	}
}

// done retires one outstanding probe; the sweep ends when none remain.
func (a *Auditor) done() {
	a.outstanding--
	if a.outstanding == 0 {
		a.auditing = false
	}
}

// stateProbe completes the per-switch AuditState probes: a named type
// over Auditor (see sm.SMPCompleter), tagged with the switch's index in
// the intent, so a sweep that finds no drift allocates nothing.
type stateProbe Auditor

// SMPDone audits one switch from its AuditState response, drilling down
// only where a digest disagrees with the intent.
func (p *stateProbe) SMPDone(tag uint64, status byte, data, _ []byte) {
	a := (*Auditor)(p)
	defer a.done()
	if status != sm.StatusOK {
		a.Counters.Add(AuditUnanswered, 1)
		return
	}
	si, dg := &a.intent.Switches[tag], &a.digests[tag]
	st := sm.ParseAuditState(data)
	modeMismatch := st.Mode != si.Mode
	inactive := si.Active && !st.Active
	needValid := st.ValidDigest != dg.valid
	needInv := st.InvalidDigest != dg.invalid && st.InvalidDigest != dg.okInv
	needAlt := st.AltDigest != dg.alt && st.AltDigest != dg.okAlt
	if !modeMismatch && !inactive && !needValid && !needInv && !needAlt {
		return
	}
	ev := &DriftEvent{Switch: si.Switch, DetectedAt: a.sim.Now(), ModeMismatch: modeMismatch, Inactive: inactive}
	path := a.paths[si.Switch]

	pending := 0
	finish := func() {
		pending--
		if pending > 0 {
			return
		}
		a.finalize(si, path, ev)
	}
	if needValid {
		pending++
	}
	if needInv {
		pending++
	}
	if needAlt {
		pending++
	}
	if pending == 0 {
		a.finalize(si, path, ev)
		return
	}
	if needValid {
		a.readTable(path, sm.AuditTableValid, func(obs []uint16, ok bool) {
			if ok {
				ev.MissingValid = diff(si.Valid, obs)
				ev.ExtraValid = diff(obs, si.Valid)
			}
			finish()
		})
	}
	if needInv {
		a.readTable(path, sm.AuditTableInvalid, func(obs []uint16, ok bool) {
			if ok {
				ev.MissingInvalid = diff(si.Invalid, obs)
				if len(ev.MissingInvalid) == 0 {
					// A verified superset: remember its digest so the
					// next sweep's mismatch costs no drill-down.
					dg.okInv = enforce.Digest16(obs)
				}
			}
			finish()
		})
	}
	if needAlt {
		a.readTable(path, sm.AuditTableAlt, func(obs []uint16, ok bool) {
			if ok {
				ev.MissingAlt = diff(si.AltSources, obs)
				if len(ev.MissingAlt) == 0 {
					dg.okAlt = enforce.Digest16(obs)
				}
			}
			finish()
		})
	}
}

// finalize records (and optionally repairs) a completed switch audit.
func (a *Auditor) finalize(si *SwitchIntent, path []byte, ev *DriftEvent) {
	if !ev.drifted() {
		return
	}
	a.Counters.Add(AuditDriftEvents, 1)
	a.Events = append(a.Events, ev)
	if a.OnDrift != nil {
		a.OnDrift(ev)
	}
	if a.cfg.Repair {
		a.repairSwitch(path, ev)
	}
}

// readTable reads one switch table in AuditEntries chunks.
func (a *Auditor) readTable(path []byte, sel int, cb func(entries []uint16, ok bool)) {
	var acc []uint16
	var step func(start int)
	step = func(start int) {
		a.outstanding++
		a.Counters.Add(AuditMADs, 1)
		a.disc.Query(sm.MethodGet, sm.AttrAuditEntries, path, sm.EncodeAuditEntriesReq(sel, start), sm.QueryFunc(func(status byte, data []byte) {
			defer a.done()
			if status != sm.StatusOK {
				a.Counters.Add(AuditUnanswered, 1)
				cb(nil, false)
				return
			}
			ch := sm.ParseAuditChunk(data)
			acc = append(acc, ch.Entries...)
			if len(acc) < ch.Total && len(ch.Entries) > 0 {
				step(len(acc))
				return
			}
			cb(acc, true)
		}), 0)
	}
	step(0)
}

// repairSwitch issues one AuditRepair Set per attributed divergence.
func (a *Auditor) repairSwitch(path []byte, ev *DriftEvent) {
	type fix struct {
		op  int
		val uint16
	}
	var fixes []fix
	for _, v := range ev.MissingValid {
		fixes = append(fixes, fix{sm.RepairAddValid, v})
	}
	for _, v := range ev.ExtraValid {
		fixes = append(fixes, fix{sm.RepairRemoveValid, v})
	}
	for _, b := range ev.MissingInvalid {
		fixes = append(fixes, fix{sm.RepairAddInvalid, b})
	}
	for _, s := range ev.MissingAlt {
		fixes = append(fixes, fix{sm.RepairAddAltSource, s})
	}
	if ev.Inactive {
		fixes = append(fixes, fix{sm.RepairActivate, 0})
	}
	if len(fixes) == 0 {
		return // mode mismatch alone has no entry-level repair
	}
	pending := len(fixes)
	acked := 0
	for _, f := range fixes {
		a.outstanding++
		a.Counters.Add(AuditRepairMADs, 1)
		a.disc.Query(sm.MethodSet, sm.AttrAuditRepair, path, sm.EncodeAuditRepairReq(f.op, f.val), sm.QueryFunc(func(status byte, _ []byte) {
			defer a.done()
			if status == sm.StatusOK {
				acked++
			}
			pending--
			if pending == 0 && acked == len(fixes) {
				ev.Repaired = true
				ev.RepairedAt = a.sim.Now()
				a.Counters.Add(AuditRepairsCompleted, 1)
			}
		}), 0)
	}
}

// diff returns the entries of want absent from have (both ascending).
func diff(want, have []uint16) []uint16 {
	var out []uint16
	i, j := 0, 0
	for i < len(want) {
		switch {
		case j >= len(have) || want[i] < have[j]:
			out = append(out, want[i])
			i++
		case want[i] == have[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}
