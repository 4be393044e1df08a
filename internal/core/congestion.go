package core

import (
	"context"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/metrics"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
)

// CongestionRow is one point of the congestion-control experiment: one
// attacker floods a single victim on the best-effort VL at a fraction
// of line rate for the first 60% of the run, replaying its own
// partition's key (a stolen intra-partition key passes every
// enforcement design — congestion control is the only containment
// left), with the Congestion Control Annex either off or on. The
// victims' best-effort traffic shares the attacker's VL and the hot
// destination link; the row reports how much of the attack the fabric
// absorbed and how fast the source was squeezed.
type CongestionRow struct {
	Mode enforce.Mode `csv:"mode"`
	// Rate is the attacker's injection rate as a fraction of line rate.
	Rate float64 `csv:"rate,%g"`
	// CC reports whether the annex was on for this arm.
	CC bool `csv:"cc"`

	// BEp99US / BEMeanUS are victim best-effort network latency tails
	// and mean, microseconds.
	BEp99US  float64 `csv:"be_p99_us"`
	BEMeanUS float64 `csv:"be_mean_us"`
	// Delivered counts legitimate datagram deliveries over the run;
	// Violations counts attack packets that reached a victim HCA's
	// P_Key check (the flood residue enforcement left for CC).
	Delivered  uint64 `csv:"delivered"`
	Violations uint64 `csv:"violations"`

	// FECNMarked counts switch marking events; CNPs the notifications
	// destinations reflected back; Throttled the injections the
	// attacker's own HCA delayed under its congestion control table.
	FECNMarked uint64 `csv:"fecn_marked"`
	CNPs       uint64 `csv:"cnps"`
	Throttled  uint64 `csv:"throttled"`
	// AttackerCCT is the peak congestion-control-table index observed
	// at the attacker's HCA — non-zero proves the source was throttled.
	AttackerCCT int `csv:"attacker_cct"`
	// TreeSpan is the number of switches with marking activity (the
	// SM's congestion log length): the congestion tree's blast radius.
	TreeSpan int `csv:"tree_span"`
	// RecoverUS is the time from attack stop until the attacker's CCT
	// index drained to zero — how long the squeeze outlives the attack.
	// -1 when it never drained (or CC was off).
	RecoverUS float64 `csv:"recover_us"`
	// StallUS sums credit-stall time over every switch output port:
	// upstream head-of-line pressure from the congestion tree.
	StallUS float64 `csv:"stall_us"`
}

// DefaultCCParams returns the congestion-control settings the experiment
// uses for its CC-on arms: mark at 6 queued packets (past the 4-credit
// input window, so only genuine convergence trips it), 16 CCT levels of
// 2µs each (a full table delays ~10 wire times per packet), decaying one
// level per 20µs.
func DefaultCCParams() fabric.CCParams {
	return fabric.CCParams{
		MarkingThreshold: 6,
		CCTSize:          16,
		CCTStep:          2 * sim.Microsecond,
		CCTDecay:         20 * sim.Microsecond,
	}
}

// CongestionSweep runs the congestion experiment over every enforcement
// design × attacker rate × CC arm.
func CongestionSweep(ctx context.Context, pool *runner.Pool, rates []float64, base Config) ([]CongestionRow, error) {
	var points []congestionPoint
	for _, mode := range []enforce.Mode{enforce.DPT, enforce.IF, enforce.SIF} {
		for _, rate := range rates {
			for _, cc := range []bool{false, true} {
				points = append(points, congestionPoint{Mode: mode, Rate: rate, CC: cc})
			}
		}
	}
	return sweep(ctx, pool, "congestion", points, func(p congestionPoint) (CongestionRow, error) { return runCongestionPoint(base, p) })
}

// congestionPoint is one cell of the congestion sweep.
type congestionPoint struct {
	Mode enforce.Mode
	Rate float64
	CC   bool
}

// congestionCfg is base set up for one congestion cell: no realtime
// load, one incast attacker burst covering the first 60% of the run, and
// congestion control on or off as the cell says.
func congestionCfg(base Config, p congestionPoint) Config {
	cfg := base
	cfg.Enforcement = p.Mode
	cfg.RealtimeLoad = 0
	if cfg.BestEffortLoad == 0 {
		cfg.BestEffortLoad = 0.3
	}
	if cfg.Attackers == 0 {
		cfg.Attackers = 1
	}
	cfg.AttackClass = fabric.ClassBestEffort
	cfg.AttackIncast = true
	cfg.AttackRate = p.Rate
	cfg.AttackDuty = 0.6
	cfg.AttackCycle = cfg.Duration // exactly one burst, then silence
	if p.CC {
		if base.Congestion.Enabled() {
			cfg.Congestion = base.Congestion
		} else {
			cfg.Congestion = DefaultCCParams()
		}
	} else {
		cfg.Congestion = fabric.CCParams{}
	}
	return cfg
}

// runCongestionPoint runs one (mode, rate, cc) cell. The attack is a
// single burst covering the first 60% of the run; the remaining 40% is
// the recovery window a CC-on arm drains its throttle state in.
func runCongestionPoint(base Config, p congestionPoint) (CongestionRow, error) {
	cfg := congestionCfg(base, p)
	tail := beTail{warmup: cfg.Warmup, rec: metrics.NewRecorder(0, 1000, 2000)}
	if cfg.Params != nil { // nil fails Build's validation
		cfg.Params = cfg.Params.Clone()
		cfg.Params.Observer = &tail
	}
	cl, err := Build(cfg)
	if err != nil {
		return CongestionRow{}, err
	}

	// Read-only CCT probe: samples the attacker HCAs' table indices so
	// the row can report the peak squeeze and the post-attack drain
	// time. Probes mutate nothing, so they cannot perturb the run.
	attackStop := sim.Time(float64(cfg.AttackCycle) * cfg.AttackDuty)
	peakCCT := 0
	recoverAt := sim.Time(-1)
	if p.CC {
		const step = 5 * sim.Microsecond
		var probe func()
		probe = func() {
			idx := 0
			for node := range cl.AttackSet {
				if i := cl.Mesh.HCA(node).CCTIndex(); i > idx {
					idx = i
				}
			}
			if idx > peakCCT {
				peakCCT = idx
			}
			now := cl.Sim.Now()
			if now >= attackStop && idx == 0 {
				if recoverAt < 0 {
					recoverAt = now
				}
				return
			}
			if now+step < cfg.Duration {
				cl.Sim.ScheduleAt(now+step, probe)
			}
		}
		cl.Sim.ScheduleAt(step, probe)
	}

	res := cl.Simulate()

	row := CongestionRow{
		Mode:        p.Mode,
		Rate:        p.Rate,
		CC:          p.CC,
		BEp99US:     tail.rec.P99(),
		BEMeanUS:    res.BestEffort.Network.Mean(),
		Delivered:   res.DeliveredUD,
		Violations:  res.HCAViolations,
		FECNMarked:  res.FECNMarked,
		CNPs:        res.CNPsSent,
		Throttled:   res.CCTThrottled,
		AttackerCCT: peakCCT,
		TreeSpan:    res.CongestionSpan,
		RecoverUS:   -1,
		StallUS:     float64(res.CreditStallNs) / 1000,
	}
	if recoverAt >= 0 {
		row.RecoverUS = (recoverAt - attackStop).Microseconds()
	}
	return row, nil
}

// beTail records the network latency (µs) of each best-effort delivery
// the statistics sample (see sampled), for the row's p99.
type beTail struct {
	warmup sim.Time
	rec    *metrics.Recorder
}

// Observe implements fabric.Observer.
func (t *beTail) Observe(_ sim.Time, kind fabric.ObsKind, _ string, d *fabric.Delivery) {
	if kind == fabric.ObsDeliver && d.Class == fabric.ClassBestEffort && sampled(d, t.warmup) {
		t.rec.Add(d.NetworkLatency().Microseconds())
	}
}

// inheritCongestion carries congestion control across a failover: the
// promoted master re-applies the configuration parsed from its synced
// blob, becoming the congestion manager.
func (cl *Cluster) inheritCongestion(newMaster *sm.SubnetManager) {
	blob := newMaster.SyncState(sm.CCMagic)
	if len(blob) == 0 {
		return
	}
	cc, err := sm.ParseCCBlob(blob)
	if err != nil {
		cl.rejectSyncState(newMaster, sm.CCMagic)
		return
	}
	newMaster.ProgramCongestionControl(cc)
}
