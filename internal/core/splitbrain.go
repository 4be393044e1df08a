package core

import (
	"context"
	"fmt"

	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/transport"
)

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
		row.IslandRollovers = cl.HA.IslandRollovers()
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
