package sm

import "ibasec/internal/topology"

// Quarantined returns a copy of the fenced-link set (canonical halves).
func (pm *PerfMgr) Quarantined() map[topology.LinkID]bool {
	out := make(map[topology.LinkID]bool, len(pm.quarantined))
	for l := range pm.quarantined {
		out[l] = true
	}
	return out
}
