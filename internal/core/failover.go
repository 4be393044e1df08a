package core

import (
	"context"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/transport"
)

// FailoverRow is one point of the SM-failover / key-rotation experiment:
// the master SM is killed a third of the way into the run and one
// partition's key is declared compromised at the halfway mark, for one
// (standby count, heartbeat interval, rekey period) cell.
type FailoverRow struct {
	Standbys    int     `csv:"standbys"`
	HeartbeatUS float64 `csv:"heartbeat_us"`
	RekeyUS     float64 `csv:"rekey_us"` // 0: rotation disabled for this arm

	// Failover: all latencies are measured from the kill instant.
	Takeovers  uint64  `csv:"takeovers"`
	ElectionUS float64 `csv:"election_us"` // kill -> a standby declares itself master
	TakeoverUS float64 `csv:"takeover_us"` // kill -> re-sweep done, tables + traps re-installed
	// MADsRecover counts the SMPs the winning standby's bounded re-sweep
	// spent re-verifying fabric state.
	MADsRecover uint64 `csv:"mads_recover"`
	// MADsLostDeadSM counts management packets (violation traps) that
	// arrived at the dead master and were lost — the detection window's
	// cost.
	MADsLostDeadSM uint64 `csv:"mads_lost_dead_sm"`

	// Rotation.
	Rollovers       uint64 `csv:"rollovers"`        // whole-fabric epoch rollover rounds
	ForcedRotations uint64 `csv:"forced_rotations"` // KeyCompromise responses
	GraceMisses     uint64 `csv:"grace_misses"`     // packets MAC'd under a retired epoch (rejected)
	AuthOKGrace     uint64 `csv:"auth_ok_grace"`    // packets accepted under the previous epoch

	// Enforcement continuity across the failover.
	AuthOK        uint64 `csv:"auth_ok"`
	AuthFail      uint64 `csv:"auth_fail"`
	TrapsSent     uint64 `csv:"traps_sent"`
	SIFRegsPre    uint64 `csv:"sif_regs_pre"`  // SIF registrations performed by the original master
	SIFRegsPost   uint64 `csv:"sif_regs_post"` // SIF registrations performed by promoted standbys
	FilterDropped uint64 `csv:"filter_dropped"`

	Sent      uint64 `csv:"sent"`
	Delivered uint64 `csv:"delivered"`
}

// FailoverSweep sweeps standby count × heartbeat interval × rekey period
// under an SMKill + KeyCompromise fault plan. heartbeatsUS and rekeysUS
// are in microseconds; a rekey of 0 runs that arm with rotation disabled.
func FailoverSweep(ctx context.Context, pool *runner.Pool, standbys []int, heartbeatsUS, rekeysUS []int64, base Config) ([]FailoverRow, error) {
	var points []failoverPoint
	for _, sb := range standbys {
		for _, hb := range heartbeatsUS {
			for _, rk := range rekeysUS {
				points = append(points, failoverPoint{Standbys: sb, HeartbeatUS: hb, RekeyUS: rk})
			}
		}
	}
	return sweep(ctx, pool, "failover", points, func(p failoverPoint) (FailoverRow, error) { return runFailoverPoint(base, p) })
}

// failoverPoint is one cell of the failover sweep; times in microseconds.
type failoverPoint struct {
	Standbys             int
	HeartbeatUS, RekeyUS int64
}

// haCfg is base set up for the SM-plane experiments (failover,
// splitbrain): SIF and partition-level authentication over a fixed
// moderate load, standbys SM standbys heartbeating every heartbeatUS,
// and a key rotation every rekeyUS microseconds (0 disables it).
func haCfg(base Config, standbys int, heartbeatUS, rekeyUS int64) Config {
	cfg := base
	cfg.Enforcement = enforce.SIF
	cfg.Auth = AuthConfig{Enabled: true, FuncID: cfg.Auth.FuncID, Level: transport.PartitionLevel}
	cfg.RealtimeLoad = 0
	cfg.BestEffortLoad = 0.3
	cfg.SM.AutoDisablePeriod = cfg.Duration / 32
	cfg.HA = HAParams{
		Standbys:  standbys,
		Heartbeat: sim.Time(heartbeatUS) * sim.Microsecond,
	}
	if rekeyUS != 0 { // a negative period reaches the config's validation
		period := sim.Time(rekeyUS) * sim.Microsecond
		cfg.Rekey = RekeyParams{
			Period:            period,
			Grace:             period / 3,
			DistributionDelay: 2 * sim.Microsecond,
		}
	}
	return cfg
}

// runFailoverPoint runs one cell of the sweep.
func runFailoverPoint(base Config, p failoverPoint) (FailoverRow, error) {
	cfg := haCfg(base, p.Standbys, p.HeartbeatUS, p.RekeyUS)
	// A single bursty attacker: each burst re-raises P_Key violations
	// after the SIF auto-disable timer has cleared the previous
	// registration, so trap -> SM -> registration round trips happen both
	// before and after the kill — the continuity signal SIFRegsPre/Post
	// report. The quiet gap between bursts (cycle × (1-duty)) must exceed
	// twice the auto-disable period, or the violation counter never stalls
	// for a full period and the registration never clears.
	cfg.Attackers = 1
	cfg.AttackDuty = 0.2
	cfg.AttackCycle = cfg.Duration / 8
	cfg.AttackClass = fabric.ClassBestEffort

	killAt := cfg.Duration / 3
	plan := &faults.Plan{
		Seed:    cfg.Seed,
		SMKills: []faults.SMKill{{At: killAt}},
	}
	if p.RekeyUS > 0 {
		plan.Compromises = []faults.KeyCompromise{{PKey: 0x8001, At: cfg.Duration / 2}}
	}
	cfg.FaultPlan = plan

	cl, err := Build(cfg)
	if err != nil {
		return FailoverRow{}, err
	}
	res := cl.Simulate()

	row := FailoverRow{
		Standbys:    p.Standbys,
		HeartbeatUS: (sim.Time(p.HeartbeatUS) * sim.Microsecond).Microseconds(),
		RekeyUS:     (sim.Time(p.RekeyUS) * sim.Microsecond).Microseconds(),
		AuthOK:      res.AuthOK,
		AuthFail:    res.AuthFail,
		TrapsSent:   res.TrapsSent,
		Sent:        res.SentLegit,
		Delivered:   res.DeliveredUD,
	}
	if cl.Filter != nil {
		row.FilterDropped = cl.Filter.Dropped
	}
	row.SIFRegsPre = cl.SM.Counters.Value(sm.SMSIFRegistrations)
	for _, sb := range cl.Standbys {
		row.SIFRegsPost += sb.Counters.Value(sm.SMSIFRegistrations)
	}
	for _, ep := range cl.Endpoints {
		if ep != nil {
			row.GraceMisses += ep.Counters.Value(transport.EpAuthEpochExpired)
			row.AuthOKGrace += ep.Counters.Value(transport.EpAuthOKGrace)
		}
	}
	if cl.HA != nil {
		row.Takeovers = cl.HA.Counters.Value(sm.HATakeovers)
		row.MADsLostDeadSM = cl.HA.Counters.Value(sm.HAMADsToDeadSM)
		if len(cl.HA.Events) > 0 {
			ev := cl.HA.Events[0]
			row.ElectionUS = (ev.ElectedAt - killAt).Microseconds()
			row.TakeoverUS = (ev.HealedAt - killAt).Microseconds()
			row.MADsRecover = uint64(ev.ProbeMADs)
		}
	}
	if cl.Rotator != nil {
		row.Rollovers = cl.Rotator.Counters.Value(sm.RotEpochRollovers)
		row.ForcedRotations = cl.Rotator.Counters.Value(sm.RotForcedRotations)
	}
	return row, nil
}
