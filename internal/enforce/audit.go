package enforce

import (
	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
)

// This file is the read-back and mutation surface the policy plane's
// drift auditing stands on: SwitchSnapshot reads one switch's programmed
// enforcement state, Digest16 condenses an entry list into the 32-bit
// fingerprint audit SMPs carry, and the mutators let fault injection
// corrupt — and the auditor's repair MADs restore — individual entries
// without rebuilding tables.

// SwitchSnapshot is one switch's enforcement state in canonical order:
// every list is ascending, so two snapshots of equal state are
// deep-equal and digest-equal. The tables are stored in this order, so
// the lists are views of the switch's own state, not copies: they stay
// valid until that switch's state next changes.
type SwitchSnapshot struct {
	Mode Mode
	// Valid holds the switch's valid-P_Key table entries (full 16-bit
	// values, membership bit included), ascending by base.
	Valid []packet.PKey
	// Invalid holds the SIF Invalid_P_Key_Table bases, ascending.
	Invalid []uint16
	// AltSources holds registered alternate-path source LIDs, ascending.
	AltSources []packet.LID
	// Active is the SIF ingress-filtering enable flag.
	Active bool
}

// Snapshot reads back sw's enforcement state.
func (f *Filter) Snapshot(sw *fabric.Switch) SwitchSnapshot {
	st := f.state(sw)
	snap := SwitchSnapshot{Mode: f.mode, Invalid: st.invalid, AltSources: st.altSources, Active: st.active}
	if st.valid != nil {
		snap.Valid = st.valid.Keys()
	}
	return snap
}

// Digest16 is the FNV-1a fingerprint of a sorted 16-bit entry list,
// shared by the switch agents (digesting observed state) and the policy
// auditor (digesting compiled intent): equal digests mean equal lists.
func Digest16[T ~uint16](vals []T) uint32 {
	h := uint32(2166136261)
	for _, v := range vals {
		h = (h ^ uint32(v>>8)) * 16777619
		h = (h ^ uint32(v&0xFF)) * 16777619
	}
	return h
}

// AddValid inserts an entry into sw's valid-P_Key table (a corruption
// when the entry is not in the compiled intent; a repair when it is).
// Every switch owns its table (sm.ProgramSwitchTables), so the mutation
// stays on sw.
func (f *Filter) AddValid(sw *fabric.Switch, pk packet.PKey) {
	st := f.state(sw)
	if st.valid == nil {
		st.valid = keys.NewPartitionTable(0)
	}
	if err := st.valid.Add(pk); err != nil {
		panic(err) // tables here are far below the IBA limit
	}
}

// RemoveValid deletes the entry with pk's base from sw's valid table.
func (f *Filter) RemoveValid(sw *fabric.Switch, pk packet.PKey) {
	st := f.state(sw)
	if st.valid != nil {
		st.valid.Remove(pk)
	}
}

// ClearInvalid wipes sw's Invalid_P_Key_Table without touching the
// active flag — the "stale switch silently forgets its registrations"
// corruption.
func (f *Filter) ClearInvalid(sw *fabric.Switch) {
	st := f.state(sw)
	st.invalid = st.invalid[:0]
}

// SetActive force-sets sw's SIF ingress-filtering flag, bypassing the
// violation bookkeeping: corruption deactivates a switch the intent
// wants filtering; repair re-arms it.
func (f *Filter) SetActive(sw *fabric.Switch, active bool) {
	st := f.state(sw)
	if active && !st.active {
		f.Activations++
	}
	st.active = active
}
