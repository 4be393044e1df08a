package fabric

// PortCounters is the subset of the IBA PortCounters attribute (IBA
// 16.1.3.5) the Performance Management plane sweeps: per-port error and
// discard counters. IBA mandates saturating — not wrapping — semantics:
// a counter that reaches its ceiling sticks there until management
// resets it, so a delta computed across a saturated read can only be
// underestimated, never negative. The 16-bit counters ceiling at 0xFFFF
// and LinkDowned (8-bit in the spec) at 0xFF.
//
// Counters are maintained unconditionally: every increment site is an
// error or fault path (corruption strikes, CRC rejects, fault
// blackholes, HOQ ageing, link transitions), so a clean run never
// touches them and the hot path is unaffected.
type PortCounters struct {
	// SymbolErrors counts link corruption strikes on the port
	// (SymbolErrorCounter). The simulator's bit-error model detects the
	// strike where it is injected, so the counter lives on the
	// transmitting side of the struck link direction.
	SymbolErrors uint16
	// RcvErrors counts packets the port received and discarded as
	// invalid (PortRcvErrors): VCRC rejects at every device, plus ICRC
	// rejects at a destination CA.
	RcvErrors uint16
	// LinkDowned counts completed link-recovery failures — every
	// transition of the port's outbound channel to the down state
	// (LinkDownedCounter).
	LinkDowned uint8
	// XmitDiscards counts packets the port discarded instead of
	// transmitting (PortXmitDiscards): fault blackholes and
	// Head-of-Queue lifetime ageing.
	XmitDiscards uint16
	// VL15Dropped counts management packets dropped on arrival
	// (VL15Dropped) — the MAD tap's drops.
	VL15Dropped uint16
}

// Saturation ceilings (IBA 16.1.3.5: PortCounters fields stick at
// all-ones).
const (
	counterCeiling16 = 0xFFFF
	counterCeiling8  = 0xFF
)

// satAdd16 adds n to a 16-bit counter with saturating semantics.
func satAdd16(c *uint16, n uint16) {
	if *c >= counterCeiling16-n {
		*c = counterCeiling16
		return
	}
	*c += n
}

// satAdd8 adds n to an 8-bit counter with saturating semantics.
func satAdd8(c *uint8, n uint8) {
	if *c >= counterCeiling8-n {
		*c = counterCeiling8
		return
	}
	*c += n
}

// AddSymbolErrors bumps SymbolErrorCounter, saturating at its ceiling.
func (pc *PortCounters) AddSymbolErrors(n uint16) { satAdd16(&pc.SymbolErrors, n) }

// AddRcvErrors bumps PortRcvErrors, saturating at its ceiling.
func (pc *PortCounters) AddRcvErrors(n uint16) { satAdd16(&pc.RcvErrors, n) }

// AddLinkDowned bumps LinkDownedCounter, saturating at its ceiling.
func (pc *PortCounters) AddLinkDowned(n uint8) { satAdd8(&pc.LinkDowned, n) }

// AddXmitDiscards bumps PortXmitDiscards, saturating at its ceiling.
func (pc *PortCounters) AddXmitDiscards(n uint16) { satAdd16(&pc.XmitDiscards, n) }

// AddVL15Dropped bumps VL15Dropped, saturating at its ceiling.
func (pc *PortCounters) AddVL15Dropped(n uint16) { satAdd16(&pc.VL15Dropped, n) }

// ErrorSum is the combined error count threshold traps fire on: symbol
// errors plus receive errors, the two counters a gray link drives.
func (pc *PortCounters) ErrorSum() uint64 {
	return uint64(pc.SymbolErrors) + uint64(pc.RcvErrors)
}
