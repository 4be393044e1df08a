package sm

import (
	"fmt"
	"io"

	"ibasec/internal/keys"
	"ibasec/internal/packet"
)

// The key half of split-brain handling, run at the protocol step that
// causes it: a contained takeover forks the authority and starts an
// island rotator (islandKeys), an abdication parks that rotator, an
// uncontain re-installs the current epochs, and a merge reconciles the
// two lineages (reconcileEpochs).

// SetSplitKeys hands a split-brain coordinator rekey, the rotation island
// masters run (disabled: the lineages never diverge, so nothing is
// reconciled), and forks, the stream contained takeovers fork the
// partition authority from: its own, so split-brain handling perturbs no
// draw the rest of a run depends on.
func (c *Coordinator) SetSplitKeys(rekey RotationConfig, forks io.Reader) {
	c.rekey, c.forks = rekey.WithDefaults(), forks
}

// islandKeys gives contained master entry i its own key lineage: an
// authority fork and, with rotation on, an island rotator.
func (c *Coordinator) islandKeys(i int) {
	e := &c.entries[i]
	m := e.sm
	if m.Authority != nil && c.forks != nil {
		m.Authority = m.Authority.Fork(c.forks)
	}
	if c.rekey.Enabled() && m.Authority != nil {
		rot, err := NewRotator(c.sim, m, c.rekey)
		if err != nil {
			panic(fmt.Sprintf("sm: island rotator: %v", err))
		}
		rot.Start()
		e.island = rot
	}
}

// IslandRollovers sums the rollover rounds of the island rotators
// contained takeovers started (each entry's latest).
func (c *Coordinator) IslandRollovers() uint64 {
	var n uint64
	for _, e := range c.entries {
		if e.island != nil {
			n += e.island.Counters.Value(RotEpochRollovers)
		}
	}
	return n
}

// reconcileEpochs is the key half of a merge. The loser rejoins the
// standby pool under the winner's authority, so a later (non-partition)
// failover rotates the unified lineage. If the loser held a fork, both
// islands kept rotating during the partition, so each partition secret
// now has two lineages sharing numeric epochs. For every partition the
// winner mints a fresh key at max(both currents)+1 and distributes it
// fabric-wide; both lineages' recent keys become retired tombstones on
// every CA, so in-flight packets sealed under either island's epochs
// drain as auth_epoch_expired instead of an auth_fail storm; and after
// the merge grace window — the rotation's own Grace, which exceeds the
// distribution delay — the displaced pre-merge keys retire too.
//
// Ordering matters on each store: the merged epoch must be installed
// before the tombstones (AddRetiredPartitionEpoch refuses tombstones at
// or above the current epoch, so they land in the same scheduled
// callback, install first).
func (c *Coordinator) reconcileEpochs(winner, loser *SubnetManager) {
	fork := loser.Authority
	loser.Authority = winner.Authority
	if winner.Authority == nil || fork == nil || fork == winner.Authority || !c.rekey.Enabled() {
		return
	}
	stores := winner.Stores
	for _, base := range winner.PartitionBases() {
		pk := packet.PKey(0x8000 | base)
		eW, okW := winner.Authority.CurrentKey(pk)
		eL, okL := fork.CurrentKey(pk)
		if !okW && !okL {
			continue
		}
		merged := max(eW.Epoch, eL.Epoch) + 1
		// Both lineages' non-current keys, plus both currents. Exact-match
		// dedup in the store makes the overlap (keys minted before the
		// fork appear in both histories) harmless.
		var tombs []keys.EpochKey
		tombs = append(tombs, winner.Authority.RecentKeys(pk)...)
		tombs = append(tombs, fork.RecentKeys(pk)...)
		if okW {
			tombs = append(tombs, eW)
		}
		if okL {
			tombs = append(tombs, eL)
		}
		fresh, err := winner.Authority.MintEpoch(pk, merged)
		if err != nil {
			panic(fmt.Sprintf("sm: merge mint for %#x: %v", uint16(pk), err))
		}
		// A copy: state syncs rewrite the partition table in place
		// before these fire.
		members := winner.Members(pk)
		c.sim.Schedule(c.rekey.DistributionDelay, func() {
			for _, n := range members {
				stores[n].InstallPartitionEpoch(pk, merged, fresh)
				for _, t := range tombs {
					stores[n].AddRetiredPartitionEpoch(pk, t)
				}
			}
		})
		c.sim.Schedule(c.rekey.Grace, func() {
			for _, n := range members {
				// One call covers both islands: each store's grace slot
				// holds its own island's pre-merge current, and every
				// pre-merge epoch is at most merged-1.
				stores[n].RetirePartitionEpoch(pk, merged-1)
			}
		})
	}
}
