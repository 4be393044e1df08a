// Package enforce implements the paper's partition-enforcement designs
// for switches (section 3.3):
//
//   - NoFiltering: the IBA baseline — switches forward everything and only
//     destination HCAs check P_Keys, so DoS traffic crosses the whole
//     fabric before being discarded.
//   - DPT (Duplicate Partition Table): every switch holds the full
//     partition table and filters every packet at every hop.
//   - IF (Ingress Filtering): only end-node-facing ports filter, against
//     the attached node's own partition table.
//   - SIF (Stateful Ingress Filtering): ingress filtering is enabled on
//     demand, per switch, when the Subnet Manager registers an invalid
//     P_Key reported by a victim's trap; an Ingress P_Key Violation
//     Counter auto-disables it after the attack subsides.
//
// The same Filter object also meters the lookup work, so simulations can
// be cross-checked against the analytic cost model of Table 2.
package enforce

import (
	"fmt"
	"slices"

	"ibasec/internal/fabric"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Mode selects a partition-enforcement design.
type Mode int

// Enforcement modes, in the order of the paper's Figure 5.
const (
	NoFiltering Mode = iota
	DPT
	IF
	SIF
)

func (m Mode) String() string {
	switch m {
	case NoFiltering:
		return "NoFiltering"
	case DPT:
		return "DPT"
	case IF:
		return "IF"
	case SIF:
		return "SIF"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// switchState is the per-switch enforcement state.
type switchState struct {
	sw    *fabric.Switch       // the switch the state is registered to
	valid *keys.PartitionTable // legal P_Keys (DPT: every partition's; IF/SIF: attached node's)
	// modelEntries is the Table 2 table size charged per lookup (DPT:
	// n×p, IF/SIF: p); the actual table may deduplicate entries.
	modelEntries int

	// SIF state.
	active        bool
	invalid       []uint16 // Invalid_P_Key_Table: bases, ascending
	violations    uint64   // Ingress P_Key Violation Counter
	lastViolCount uint64   // snapshot for the auto-disable timer

	// altSources holds the source LIDs registered as legitimate users of
	// alternate-path (APM) addresses through this switch, ascending.
	altSources []packet.LID
}

// Filter implements fabric.Filter for all four modes. One Filter instance
// serves an entire mesh; per-switch state is kept internally. A Filter
// belongs to the one simulation run whose switches it inspects and takes
// no lock; parallelism is across runs (internal/runner).
type Filter struct {
	mode   Mode
	params *fabric.Params

	// states holds each switch's state at the index the switch carries
	// (fabric.Switch.FilterSlot), in the order the filter first met them.
	states []switchState

	// altBase, when non-zero, arms SIF source-identity checking for
	// migrated traffic: every non-management packet addressed at or
	// above altBase (an alternate-path LID) must carry a source LID
	// registered on each switch it crosses, or it is dropped.
	altBase packet.LID

	// Lookups counts partition-table lookup operations actually
	// performed, the quantity Table 2 models as f(·) per packet.
	Lookups uint64
	// Dropped counts packets discarded by enforcement.
	Dropped uint64
	// Activations counts SIF enable events.
	Activations uint64
	// AltDropped counts migrated-path packets discarded because their
	// source identity was not registered on a switch along the alternate
	// route (a subset of Dropped).
	AltDropped uint64
}

// NewFilter returns a filter in the given mode.
func NewFilter(mode Mode, params *fabric.Params) *Filter {
	return &Filter{mode: mode, params: params}
}

// Mode returns the filter's enforcement mode.
func (f *Filter) Mode() Mode { return f.mode }

// lookup returns sw's state, or nil before the filter first met sw. The
// index sw carries is checked against the switch registered there, so a
// switch another filter numbered is simply not found.
func (f *Filter) lookup(sw *fabric.Switch) *switchState {
	if i := sw.FilterSlot(); i < len(f.states) && f.states[i].sw == sw {
		return &f.states[i]
	}
	return nil
}

// state returns sw's state, registering sw on first sight. The pointer
// is valid until the next registration.
func (f *Filter) state(sw *fabric.Switch) *switchState {
	if st := f.lookup(sw); st != nil {
		return st
	}
	sw.SetFilterSlot(len(f.states))
	f.states = append(f.states, switchState{sw: sw})
	return &f.states[len(f.states)-1]
}

// SetSwitchTable installs the valid-P_Key table a switch filters against
// and the Table 2 model size charged per lookup. For DPT the table is the
// full network table (model size n×p); for IF/SIF it is the partition set
// of the node attached to the switch's ingress port (model size p). A
// modelEntries of zero defaults to the table's actual length.
func (f *Filter) SetSwitchTable(sw *fabric.Switch, table *keys.PartitionTable, modelEntries int) {
	st := f.state(sw)
	st.valid = table
	if modelEntries <= 0 && table != nil {
		modelEntries = table.Len()
	}
	st.modelEntries = modelEntries
}

// lookupDelay converts a model table size into forwarding latency: one
// ClockCycle per entry, Table 2's f(i) with a linear scan
// (LinearLookup).
func (f *Filter) lookupDelay(entries int) sim.Time {
	return sim.Time(entries) * f.params.ClockCycle
}

// RegisterInvalid is the Subnet Manager's SIF action: record an invalid
// P_Key at the attacker's ingress switch and enable filtering there.
// The Invalid_P_Key_Table is capped at the size of the switch's valid
// partition table; beyond the cap the switch falls back to positive
// (valid-table) filtering, per the paper's table-growth discussion.
func (f *Filter) RegisterInvalid(sw *fabric.Switch, pk packet.PKey) {
	if f.mode != SIF {
		return
	}
	st := f.state(sw)
	cap := 0
	if st.valid != nil {
		cap = st.valid.Len()
	}
	if i, found := slices.BinarySearch(st.invalid, pk.Base()); !found && len(st.invalid) < cap {
		st.invalid = slices.Insert(st.invalid, i, pk.Base())
	}
	if !st.active {
		st.active = true
		f.Activations++
	}
}

// EnableAltPathEnforcement arms the SIF source-identity check for
// alternate-path (APM) traffic: packets addressed at or above altBase
// are only forwarded by switches holding a registration for their
// source LID. SIF mode only; in other modes this is a no-op, matching
// the paper's framing that only stateful ingress filtering tracks
// per-source state.
func (f *Filter) EnableAltPathEnforcement(altBase packet.LID) {
	if f.mode != SIF {
		return
	}
	f.altBase = altBase
}

// RegisterAltSource records src as a legitimate user of alternate-path
// addresses through sw (the SM's action when it hands out a path record
// and re-registers the connection's source identity along the alternate
// route).
func (f *Filter) RegisterAltSource(sw *fabric.Switch, src packet.LID) {
	st := f.state(sw)
	if i, found := slices.BinarySearch(st.altSources, src); !found {
		st.altSources = slices.Insert(st.altSources, i, src)
	}
}

// Active reports whether SIF filtering is currently enabled at sw.
func (f *Filter) Active(sw *fabric.Switch) bool {
	st := f.lookup(sw)
	return st != nil && st.active
}

// StartAutoDisable arms the SIF self-disable rule on a simulator: every
// period, any switch whose violation counter has not advanced disables
// its ingress filtering and clears its Invalid_P_Key_Table ("If this
// counter does not increase for some time, the switch disables ingress
// filtering by itself"). The returned cancel function stops the timer.
func (f *Filter) StartAutoDisable(s *sim.Simulator, period sim.Time) (cancel func()) {
	if f.mode != SIF {
		return func() {}
	}
	return s.Every(period, func() {
		for i := range f.states {
			st := &f.states[i]
			if !st.active {
				continue
			}
			if st.violations == st.lastViolCount {
				st.active = false
				st.invalid = st.invalid[:0]
			}
			st.lastViolCount = st.violations
		}
	})
}

// Inspect implements fabric.Filter.
func (f *Filter) Inspect(sw *fabric.Switch, _ int, ingress bool, d *fabric.Delivery) (bool, sim.Time) {
	if d.Class == fabric.ClassManagement {
		return false, 0 // management packets bypass partition enforcement
	}
	st := f.state(sw)
	pk := d.Pkt.BTH.PKey

	// Migrated-path source-identity check (SIF + APM): a packet addressed
	// to an alternate LID crosses switches the connection never
	// registered with at setup time, so under stateful filtering each hop
	// demands its own registration — this is the drop cliff the apm
	// experiment measures when alternate paths are left unregistered.
	if f.altBase != 0 && d.Pkt.LRH.DLID >= f.altBase {
		f.Lookups++
		if _, registered := slices.BinarySearch(st.altSources, d.Pkt.LRH.SLID); !registered {
			f.Dropped++
			f.AltDropped++
			return true, f.lookupDelay(len(st.altSources) + 1)
		}
		// Registered: fall through to the normal SIF ingress check.
	}

	switch f.mode {
	case NoFiltering:
		return false, 0

	case DPT:
		// Full table at every switch: one lookup per hop, every packet,
		// charged at f(n×p).
		f.Lookups++
		delay := f.lookupDelay(st.modelEntries)
		if st.valid == nil || !st.valid.Check(pk) {
			f.Dropped++
			return true, delay
		}
		return false, delay

	case IF:
		if !ingress {
			return false, 0
		}
		// Ingress only, charged at f(p).
		f.Lookups++
		delay := f.lookupDelay(st.modelEntries)
		if st.valid == nil || !st.valid.Check(pk) {
			f.Dropped++
			return true, delay
		}
		return false, delay

	case SIF:
		if !ingress || !st.active {
			return false, 0
		}
		f.Lookups++
		overflowed := st.valid != nil && len(st.invalid) >= st.valid.Len()
		var drop bool
		var delay sim.Time
		if overflowed {
			// Fallback: positive filtering against the valid table.
			delay = f.lookupDelay(st.modelEntries)
			drop = !st.valid.Check(pk)
		} else {
			// Invalid-table lookup: f(min(Avg(p), p)).
			delay = f.lookupDelay(len(st.invalid))
			_, drop = slices.BinarySearch(st.invalid, pk.Base())
		}
		if drop {
			st.violations++
			f.Dropped++
			return true, delay
		}
		return false, delay
	}
	return false, 0
}
