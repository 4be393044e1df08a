package core

import (
	"context"
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/transport"
)

// wireSplitBrain hooks the HA coordinator's partition-lifecycle callbacks
// into the key plane. The coordinator owns detection, containment and the
// merge protocol; what lives here is everything that needs the cluster's
// endpoints and RNG streams:
//
//   - a contained island master forks the shared partition authority so
//     its island-scoped rotations diverge without racing the other side,
//     and gets an island rotator on the same cadence as the fabric one;
//   - an abdicating loser parks its island rotator (the fork stays
//     readable until the merge reconciles it);
//   - a merge reconciles the two key-epoch lineages (reconcileEpochs);
//   - an uncontain (heal with no rival ever elected) re-installs the
//     current epochs fabric-wide, because the far side missed every
//     rotation during the partition.
func (cl *Cluster) wireSplitBrain() {
	cl.HA.OnContainedTakeover = func(m *sm.SubnetManager) {
		if m.Authority != nil && cl.rngSplit != nil {
			m.Authority = m.Authority.Fork(cl.rngSplit)
		}
		if cl.Cfg.Rekey.Enabled() && m.Authority != nil {
			rot, err := sm.NewRotator(cl.Sim, m, cl.Cfg.Rekey)
			if err != nil {
				panic(fmt.Sprintf("core: island rotator: %v", err))
			}
			rot.Start()
			cl.IslandRotators[m] = rot
		}
	}
	cl.HA.OnAbdicate = func(m *sm.SubnetManager) {
		if rot := cl.IslandRotators[m]; rot != nil {
			rot.Stop()
		}
	}
	cl.HA.OnUncontain = func(m *sm.SubnetManager) {
		if m.Authority == nil || m.InstallSecret == nil {
			return
		}
		for _, base := range m.PartitionBases() {
			pk := packet.PKey(0x8000 | base)
			ek, ok := m.Authority.CurrentKey(pk)
			if !ok {
				continue
			}
			for _, n := range m.Members(pk) {
				// The rejoined side's stores hold a stale epoch; installing
				// the current one displaces it into the grace window, so
				// straggler traffic drains instead of hard-failing.
				m.InstallSecret(n, pk, ek.Key, ek.Epoch)
			}
		}
	}
	cl.HA.OnMerge = func(winner, loser *sm.SubnetManager) {
		fork := loser.Authority
		// The loser rejoins the standby pool under the winner's authority,
		// so a later (non-partition) failover rotates the unified lineage.
		loser.Authority = winner.Authority
		if winner.Authority == nil || fork == nil || fork == winner.Authority {
			return
		}
		cl.reconcileEpochs(winner, fork)
	}
}

// reconcileEpochs is the key-plane half of a split-brain merge. During
// the partition both islands kept rotating, so each partition secret now
// has two diverged lineages sharing numeric epochs. For every partition
// the winner mints a fresh key at max(both currents)+1 and distributes
// it fabric-wide; both lineages' recent keys become retired tombstones
// on every CA, so in-flight packets sealed under either island's epochs
// drain as auth_epoch_expired instead of an auth_fail storm; and after
// the merge grace window — the rotation's own Grace, which exceeds the
// distribution delay — the displaced pre-merge keys retire too.
//
// Ordering matters on each store: the merged epoch must be installed
// before the tombstones (AddRetiredPartitionEpoch refuses tombstones at
// or above the current epoch, so they land in the same scheduled
// callback, install first).
func (cl *Cluster) reconcileEpochs(winner *sm.SubnetManager, fork *keys.PartitionAuthority) {
	if !cl.Cfg.Rekey.Enabled() {
		return // epoch 0 everywhere: the lineages never diverged
	}
	rk := cl.Cfg.Rekey.WithDefaults()
	for _, base := range winner.PartitionBases() {
		pk := packet.PKey(0x8000 | base)
		eW, okW := winner.Authority.CurrentKey(pk)
		eL, okL := fork.CurrentKey(pk)
		if !okW && !okL {
			continue
		}
		merged := eW.Epoch
		if eL.Epoch > merged {
			merged = eL.Epoch
		}
		merged++
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
			panic(fmt.Sprintf("core: merge mint for %#x: %v", uint16(pk), err))
		}
		members := winner.Members(pk)
		cl.Sim.Schedule(rk.DistributionDelay, func() {
			for _, n := range members {
				ep := cl.Endpoints[n]
				if ep == nil {
					continue
				}
				ep.Store.InstallPartitionEpoch(pk, merged, fresh)
				for _, t := range tombs {
					ep.Store.AddRetiredPartitionEpoch(pk, t)
				}
			}
		})
		cl.Sim.Schedule(rk.Grace, func() {
			for _, n := range members {
				if ep := cl.Endpoints[n]; ep != nil {
					// One call covers both islands: each store's grace slot
					// holds its own island's pre-merge current, and every
					// pre-merge epoch is at most merged-1.
					ep.Store.RetirePartitionEpoch(pk, merged-1)
				}
			}
		})
	}
}

// SplitBrainRow is one point of the split-brain experiment: the mesh is
// bisected a third of the way into the run for PartitionUS microseconds,
// each island elects or keeps a master, and the heal forces the merge
// protocol to reconverge on a single master and a single key lineage.
type SplitBrainRow struct {
	PartitionUS float64 `csv:"partition_us"`
	HeartbeatUS float64 `csv:"heartbeat_us"`
	RekeyUS     float64 `csv:"rekey_us"` // 0: rotation disabled for this arm

	// Protocol events.
	Containments       uint64 `csv:"containments"`        // sitting master dropped into island mode
	ContainedTakeovers uint64 `csv:"contained_takeovers"` // island standby elected contained master
	Abdications        uint64 `csv:"abdications"`
	Merges             uint64 `csv:"merges"`
	CensusRounds       uint64 `csv:"census_rounds"`

	// Merge timeline, from the first completed merge. DualMasterUS is the
	// loser's election -> abdication window; ReconvergeUS is cut mend ->
	// merge complete (single master, fabric-wide state re-imposed).
	DualMasterUS  float64 `csv:"dual_master_us"`
	ReconvergeUS  float64 `csv:"reconverge_us"`
	ReconcileMADs uint64  `csv:"reconcile_mads"`

	// Rotation: fabric rollover rounds plus the loser island's own.
	Rollovers       uint64 `csv:"rollovers"`
	IslandRollovers uint64 `csv:"island_rollovers"`

	// MAD hygiene across the partition (duplicate-TID suppression).
	DupRequests uint64 `csv:"dup_requests"`

	// Auth health across the merge: GraceMisses (auth_epoch_expired)
	// is the soft-landing path, AuthFail the storm that merge grace
	// exists to prevent.
	AuthOK      uint64 `csv:"auth_ok"`
	AuthFail    uint64 `csv:"auth_fail"`
	GraceMisses uint64 `csv:"grace_misses"`
	AuthOKGrace uint64 `csv:"auth_ok_grace"`

	Sent      uint64 `csv:"sent"`
	Delivered uint64 `csv:"delivered"`
}

// SplitBrainSweep sweeps partition duration × heartbeat interval × rekey
// period under a mesh-bisection fault plan with split-brain handling on.
// All axes are in microseconds; a rekey of 0 disables rotation.
func SplitBrainSweep(ctx context.Context, pool *runner.Pool, partitionsUS, heartbeatsUS, rekeysUS []int64, base Config) ([]SplitBrainRow, error) {
	var points []splitBrainPoint
	for _, pt := range partitionsUS {
		for _, hb := range heartbeatsUS {
			for _, rk := range rekeysUS {
				points = append(points, splitBrainPoint{PartitionUS: pt, HeartbeatUS: hb, RekeyUS: rk})
			}
		}
	}
	return sweep(ctx, pool, "splitbrain", points, func(p splitBrainPoint) (SplitBrainRow, error) { return runSplitBrainPoint(base, p) })
}

// splitBrainPoint is one cell of the split-brain sweep; times in
// microseconds.
type splitBrainPoint struct{ PartitionUS, HeartbeatUS, RekeyUS int64 }

// splitBrainConfig builds one (partition duration, heartbeat, rekey)
// cell's configuration: SIF + partition-level auth brought up through
// the policy plane, one standby placed across the cut from the master,
// and a vertical bisection of the mesh for the given window. No
// attacker: bursty floods delay census pongs enough to fake partial
// reachability, and this experiment measures the partition protocol, not
// congestion noise. A window whose end would pass sim.MaxTime is
// refused here, where its end is summed: past that point it has wrapped.
func splitBrainConfig(base Config, p splitBrainPoint) (Config, error) {
	cfg := haCfg(base, 1, p.HeartbeatUS, p.RekeyUS)
	cfg.HA.SplitBrain = true
	// Bring-up through the policy plane (no auditor): the merge re-imposes
	// the winner's compiled intent, not membership-derived tables.
	cfg.Policy = PolicyParams{Enabled: true}
	cfg.ResweepPeriod = 0

	// Vertical bisection: the master (node 0) lands in the west island,
	// the single standby (highest-index node) in the east one, so the
	// partition always produces a contained master on each side.
	downAt := cfg.Duration / 3
	length := sim.Time(p.PartitionUS) * sim.Microsecond
	if length > sim.MaxTime-downAt {
		return Config{}, fmt.Errorf("core: partition window from %v lasting %v ends past the simulator's largest time %v", downAt, length, sim.MaxTime)
	}
	part := faults.Bisect(cfg.MeshW, cfg.MeshH, cfg.MeshW/2)
	part.DownAt = downAt
	part.UpAt = downAt + length
	cfg.FaultPlan = &faults.Plan{Seed: cfg.Seed, Partitions: []faults.Partition{part}}
	return cfg, nil
}

// runSplitBrainPoint runs one cell and harvests its row.
func runSplitBrainPoint(base Config, p splitBrainPoint) (SplitBrainRow, error) {
	cfg, err := splitBrainConfig(base, p)
	if err != nil {
		return SplitBrainRow{}, err
	}
	upAt := cfg.FaultPlan.Partitions[0].UpAt

	cl, err := Build(cfg)
	if err != nil {
		return SplitBrainRow{}, err
	}
	res := cl.Simulate()

	row := SplitBrainRow{
		PartitionUS:  (sim.Time(p.PartitionUS) * sim.Microsecond).Microseconds(),
		HeartbeatUS:  (sim.Time(p.HeartbeatUS) * sim.Microsecond).Microseconds(),
		RekeyUS:      (sim.Time(p.RekeyUS) * sim.Microsecond).Microseconds(),
		DualMasterUS: -1,
		ReconvergeUS: -1,
		AuthOK:       res.AuthOK,
		AuthFail:     res.AuthFail,
		Sent:         res.SentLegit,
		Delivered:    res.DeliveredUD,
	}
	if cl.HA != nil {
		row.Containments = cl.HA.Counters.Value(sm.HAContainments)
		row.ContainedTakeovers = cl.HA.Counters.Value(sm.HAContainedTakeovers)
		row.Abdications = cl.HA.Counters.Value(sm.HAAbdications)
		row.Merges = cl.HA.Counters.Value(sm.HAMerges)
		row.CensusRounds = cl.HA.Counters.Value(sm.HACensusRounds)
		if len(cl.HA.Merges) > 0 {
			ev := cl.HA.Merges[0]
			row.DualMasterUS = (ev.AbdicatedAt - ev.ContainedAt).Microseconds()
			row.ReconvergeUS = (ev.MergedAt - upAt).Microseconds()
			row.ReconcileMADs = uint64(ev.ReconcileMADs)
		}
	}
	if cl.Rotator != nil {
		row.Rollovers = cl.Rotator.Counters.Value(sm.RotEpochRollovers)
	}
	for _, rot := range cl.IslandRotators {
		row.IslandRollovers += rot.Counters.Value(sm.RotEpochRollovers)
	}
	for _, sw := range cl.Mesh.Switches {
		row.DupRequests += sw.Counters.Value(fabric.SwSMPDupRequests)
	}
	for _, hca := range cl.Mesh.HCAs {
		row.DupRequests += hca.Counters.Value(fabric.HCASMPDupRequests)
	}
	for _, ep := range cl.Endpoints {
		if ep != nil {
			row.GraceMisses += ep.Counters.Value(transport.EpAuthEpochExpired)
			row.AuthOKGrace += ep.Counters.Value(transport.EpAuthOKGrace)
		}
	}
	return row, nil
}
