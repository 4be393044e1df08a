package core

import (
	"context"
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/packet"
	"ibasec/internal/policy"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
)

// DriftRow is one point of the policy-drift experiment: a switch's
// programmed enforcement state is corrupted out-of-band a quarter of
// the way into the run, and the drift auditor (period AuditPeriodUS,
// zero = no auditing) watches — or watches and repairs — the fabric.
// Blast is the mode-specific damage the corruption caused before it
// was reversed: legitimate packets falsely dropped under DPT, attack
// packets delivered to victims under IF, P_Key violations reaching
// victim HCAs under SIF.
type DriftRow struct {
	Mode          enforce.Mode `csv:"mode"`
	AuditPeriodUS float64      `csv:"audit_period_us"`
	Repair        bool         `csv:"repair"`

	DriftEvents   uint64 `csv:"drift_events"`
	DriftRepaired uint64 `csv:"drift_repaired"`
	// DetectUS is corruption -> first drift detection; RepairUS is
	// corruption -> first completed repair. -1 when it never happened.
	DetectUS float64 `csv:"detect_us"`
	RepairUS float64 `csv:"repair_us"`

	Blast           uint64 `csv:"blast"`
	AttackDelivered uint64 `csv:"attack_delivered"`
	FilterDropped   uint64 `csv:"filter_dropped"`
	HCAViolations   uint64 `csv:"hca_violations"`

	AuditMADs  uint64 `csv:"audit_mads"`
	RepairMADs uint64 `csv:"repair_mads"`

	Sent      uint64 `csv:"sent"`
	Delivered uint64 `csv:"delivered"`
}

// DriftSweep runs the drift experiment over every enforcement design ×
// audit period × repair arm. periodsUS are sweep intervals in
// microseconds; 0 runs the no-auditor baseline (one arm — repair is
// meaningless without detection), every other period runs both a
// detect-only and a repair arm.
func DriftSweep(ctx context.Context, pool *runner.Pool, periodsUS []int, base Config) ([]DriftRow, error) {
	var points []driftPoint
	for _, mode := range []enforce.Mode{enforce.DPT, enforce.IF, enforce.SIF} {
		for _, period := range periodsUS {
			arms := []bool{false, true}
			if period == 0 {
				arms = []bool{false}
			}
			for _, repair := range arms {
				points = append(points, driftPoint{Mode: mode, PeriodUS: period, Repair: repair})
			}
		}
	}
	return sweep(ctx, pool, "drift", points, func(p driftPoint) (DriftRow, error) { return runDriftPoint(base, p) })
}

// driftPoint is one cell of the drift sweep.
type driftPoint struct {
	Mode     enforce.Mode
	PeriodUS int
	Repair   bool
}

// runDriftPoint runs one (mode, audit period, repair) cell. Each
// enforcement design gets the corruption that defeats it:
//
//   - DPT: a legitimate partition key is deleted from the victim's
//     ingress switch — its traffic silently blackholes (false drops).
//   - IF: the victims' partition key is slipped into the attacker's
//     ingress table while the attacker replays exactly that stolen
//     key — attack traffic sails end-to-end (attack deliveries).
//   - SIF: the pinned invalid registration is wiped and filtering
//     switched off at the attacker's ingress — violations reach victim
//     HCAs until the trap path re-registers or the auditor restores
//     the pin (the contrast between the reactive and the declarative
//     control loop).
func runDriftPoint(base Config, p driftPoint) (DriftRow, error) {
	cfg := base
	cfg.Enforcement = p.Mode
	cfg.RealtimeLoad = 0
	if cfg.BestEffortLoad == 0 {
		cfg.BestEffortLoad = 0.3
	}
	cfg.Policy = PolicyParams{
		Enabled:     true,
		AuditPeriod: sim.Time(p.PeriodUS) * sim.Microsecond,
		Repair:      p.Repair,
	}

	corruptAt := cfg.Duration / 4
	plan := &faults.Plan{Seed: cfg.Seed}
	switch p.Mode {
	case enforce.DPT:
		cfg.Attackers = 0
		plan.Corruptions = []faults.TableCorruption{
			{Switch: faults.SwitchVictimIngress, At: corruptAt, Op: faults.CorruptRemoveValid, PKey: 0x8001},
		}
	case enforce.IF:
		cfg.Attackers = 1
		cfg.AttackDuty = 1.0
		cfg.AttackClass = fabric.ClassBestEffort
		// The stolen key must be one the victims actually hold (0x8001,
		// the first partition): an invented key would still bounce off
		// the victim HCA's own P_Key check even after the switch table
		// is corrupted.
		cfg.AttackPKey = packet.PKey(0x8001)
		plan.Corruptions = []faults.TableCorruption{
			{Switch: faults.SwitchAttackerIngress, At: corruptAt, Op: faults.CorruptAddValid, PKey: 0x8001},
		}
	case enforce.SIF:
		cfg.Attackers = 1
		cfg.AttackDuty = 1.0
		cfg.AttackClass = fabric.ClassBestEffort
		cfg.AttackPKey = packet.PKey(0x0FFF)
		cfg.Policy.PinInvalid = 0x0FFF
		// The intent wants the pin to persist: auto-disable would clear
		// it between bursts and fight the auditor's repairs.
		cfg.SM.AutoDisablePeriod = 0
		plan.Corruptions = []faults.TableCorruption{
			{Switch: faults.SwitchAttackerIngress, At: corruptAt, Op: faults.CorruptClearInvalid},
			{Switch: faults.SwitchAttackerIngress, At: corruptAt, Op: faults.CorruptDeactivate},
		}
	default:
		return DriftRow{}, fmt.Errorf("drift: unsupported enforcement mode %v", p.Mode)
	}
	cfg.FaultPlan = plan

	cl, err := Build(cfg)
	if err != nil {
		return DriftRow{}, err
	}
	res := cl.Simulate()

	row := DriftRow{
		Mode:            p.Mode,
		AuditPeriodUS:   (sim.Time(p.PeriodUS) * sim.Microsecond).Microseconds(),
		Repair:          p.Repair,
		DriftEvents:     res.DriftEvents,
		DriftRepaired:   res.DriftRepaired,
		DetectUS:        -1,
		RepairUS:        -1,
		AttackDelivered: res.AttackDelivered,
		FilterDropped:   res.FilterDropped,
		HCAViolations:   res.HCAViolations,
		AuditMADs:       res.AuditMADs,
		RepairMADs:      res.RepairMADs,
		Sent:            res.SentLegit,
		Delivered:       res.DeliveredUD,
	}
	switch p.Mode {
	case enforce.DPT:
		row.Blast = res.FilterDropped
	case enforce.IF:
		row.Blast = res.AttackDelivered
	case enforce.SIF:
		row.Blast = res.HCAViolations
	}
	if cl.Auditor != nil && len(cl.Auditor.Events) > 0 {
		row.DetectUS = (cl.Auditor.Events[0].DetectedAt - corruptAt).Microseconds()
		for _, ev := range cl.Auditor.Events {
			if ev.Repaired {
				row.RepairUS = (ev.RepairedAt - corruptAt).Microseconds()
				break
			}
		}
	}
	return row, nil
}

// startAuditor starts the drift auditor for intent, probing from
// master's node: the configured SM at bring-up, the promoted standby
// after a takeover.
func (cl *Cluster) startAuditor(intent *policy.Intent, master *sm.SubnetManager) {
	node := master.Node()
	cl.Auditor = policy.NewAuditor(cl.Sim, cl.newDiscoverer(node), intent,
		sm.SwitchPaths(cl.Mesh, node),
		policy.AuditConfig{Period: cl.Cfg.Policy.AuditPeriod, Repair: cl.Cfg.Policy.Repair})
	cl.Auditor.Start()
	cl.auditors = append(cl.auditors, cl.Auditor)
}

// inheritPolicy carries the policy plane across a failover through the
// synced document: the promoted master recompiles intent from it and
// the drift auditor restarts bound to its node; the master programs
// tables from the partitions it adopted, as any master does. Only a run
// that audits inherits — without an auditor nothing reads the intent
// again.
func (cl *Cluster) inheritPolicy(newMaster *sm.SubnetManager) {
	blob := newMaster.SyncState(policy.Magic)
	if cl.Auditor == nil || len(blob) == 0 {
		return
	}
	cl.Auditor.Stop()
	var intent *policy.Intent
	doc, err := policy.Unmarshal(blob)
	if err == nil {
		intent, err = policy.Compile(doc, cl.Mesh.NumNodes())
	}
	if err != nil {
		cl.rejectSyncState(newMaster, policy.Magic)
		return
	}
	cl.startAuditor(intent, newMaster)
}

// collectDrift sums every auditor's events and in-band MAD cost into
// the results.
func (cl *Cluster) collectDrift() {
	for _, a := range cl.auditors {
		for _, ev := range a.Events {
			cl.res.DriftEvents++
			if ev.Repaired {
				cl.res.DriftRepaired++
			}
		}
		cl.res.AuditMADs += a.Counters.Value(policy.AuditMADs)
		cl.res.RepairMADs += a.Counters.Value(policy.AuditRepairMADs)
	}
}
