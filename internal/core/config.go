// Package core assembles the full system — mesh, subnet manager,
// partition enforcement, transport endpoints, key management and traffic
// generators — into reproducible experiments. Every figure and table of
// the paper's evaluation is regenerated from this package (see
// experiments.go and the cmd/ibsim tool).
package core

import (
	"fmt"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/transport"
)

// AuthConfig selects the paper's authentication mechanism.
type AuthConfig struct {
	// Enabled turns ICRC-field authentication tags on.
	Enabled bool
	// FuncID is the MAC function (mac.IDUMAC32 by default).
	FuncID uint8
	// Level selects partition-level or QP-level key management.
	Level transport.KeyLevel
	// Replay enables the PSN replay check (section 7 extension).
	Replay bool
	// ThroughputGbps, when non-zero, charges each outgoing message a
	// MAC-generation delay of size/throughput instead of the default
	// single pipeline cycle — modelling a CA whose MAC engine runs
	// slower than the link (the section 5.2/7 "can authentication keep
	// up with IBA link speed?" question). Zero keeps the paper's
	// 1-cycle pipelined assumption.
	ThroughputGbps float64
}

// HAParams configures subnet-manager high availability. The zero value
// disables HA entirely (single SM, exactly the pre-HA behaviour).
type HAParams struct {
	// Standbys is how many standby SM instances to run. They are placed
	// deterministically on the highest-index nodes (skipping the master's
	// node) in priority order, receive heartbeat + state-sync MADs from
	// the master, and elect a replacement on lease expiry.
	Standbys int
	// Heartbeat is the master's beacon period.
	Heartbeat sim.Time
	// Lease is the heartbeat-silence tolerance before takeover; it must
	// be at least one heartbeat. Zero defaults to 3×Heartbeat.
	Lease sim.Time
	// SplitBrain enables partition-aware mastership: elections are gated
	// on a reachable-node census (partial reach elects a contained
	// island master instead of a pretend fabric-wide one), the sitting
	// master censuses periodically to notice a partition on its own
	// side, and after a heal the lower-priority master abdicates while
	// the winner merges the island back — bounded re-sweep, epoch
	// reconciliation, policy re-imposition. Default off: the coordinator
	// then behaves exactly as before this knob existed.
	SplitBrain bool
	// CensusWait is how long a census may collect pongs before its
	// verdict (unanimity concludes a round early); zero defaults to 2×
	// the lease. It must cover a fabric-diameter MAD round trip, or
	// healthy distant nodes read as unreachable.
	CensusWait sim.Time
	// CensusPeriod is the master's partition-detection interval; zero
	// defaults to the lease.
	CensusPeriod sim.Time
}

// Enabled reports whether any HA machinery should be wired.
func (h HAParams) Enabled() bool { return h.Standbys > 0 }

// RekeyParams configures online key-epoch rotation. The zero value
// disables rotation (secrets stay at epoch 0 forever, exactly the
// pre-rotation behaviour). Rotation requires partition-level
// authentication.
type RekeyParams struct {
	// Period is the epoch rollover interval; zero disables rotation.
	Period sim.Time
	// Grace is how long receivers keep accepting the previous epoch
	// after a rollover. Zero defaults to Period/4.
	Grace sim.Time
	// DistributionDelay models envelope-distribution latency between the
	// authority minting epoch e+1 and members' stores holding it.
	DistributionDelay sim.Time
	// MergeGrace is how long receivers keep accepting a partitioned-off
	// island's epochs after a split-brain merge reconciles the two key
	// lineages; zero defaults to Grace. It must exceed DistributionDelay
	// so in-flight packets sealed under a losing-island epoch drain as
	// auth_epoch_expired instead of an auth_fail storm. Only meaningful
	// with HA.SplitBrain.
	MergeGrace sim.Time
}

// Enabled reports whether rotation should be wired.
func (r RekeyParams) Enabled() bool { return r.Period > 0 }

// withDefaults returns r with its zero Grace and MergeGrace resolved —
// the one place that knows the defaults the field comments state.
func (r RekeyParams) withDefaults() RekeyParams {
	if r.Grace == 0 {
		r.Grace = r.Period / 4
	}
	if r.MergeGrace == 0 {
		r.MergeGrace = r.Grace
	}
	return r
}

// PolicyParams configures the declarative security policy plane
// (internal/policy). The zero value disables it entirely: partitions
// are created imperatively and switch tables are programmed from
// membership, exactly the pre-policy behaviour.
type PolicyParams struct {
	// Enabled routes bring-up through a compiled policy document: the
	// run's partition grouping is synthesized into a policy.Document,
	// compiled to per-switch intent, and programmed from that intent.
	// The SM then carries the marshalled document (synced to HA
	// standbys) and a reprogram hook that restores compiled state.
	Enabled bool
	// AuditPeriod, when positive, runs the continuous drift auditor at
	// that sweep interval: in-band audit SMPs compare every switch's
	// enforcement state against the compiled intent. Zero audits never.
	AuditPeriod sim.Time
	// Repair lets the auditor reverse attributed drift with M_Key-
	// guarded repair MADs; false detects and records only.
	Repair bool
	// PinInvalid, when non-zero, pins this base as a known-invalid
	// P_Key at every switch in the document (SIF enforcement only):
	// filtering is active from bring-up instead of waiting for the
	// first trap round trip.
	PinInvalid uint16
}

// HealthParams configures the performance-management health plane: a
// PerfMgr beside the master SM sweeps every inter-switch link's
// PortCounters over real PMA MADs, scores links with a delta-based
// EWMA, and proactively quarantines flaky links — rerouting around them
// before they fail hard. The zero value disables the plane entirely
// (no sweeps, no traps, byte-identical to pre-health builds).
type HealthParams struct {
	// SweepPeriod is the PortCounters sweep interval; zero disables the
	// whole health plane.
	SweepPeriod sim.Time
	// Alpha is the EWMA smoothing factor; zero defaults to 0.5.
	Alpha float64
	// QuarantineScore fences a link when its EWMA error score reaches
	// it; zero defaults to 4 (errors per sweep, both directions).
	QuarantineScore float64
	// ReadmitScore re-admits a fenced link once its score decays to it
	// and the hold-down expired; zero defaults to QuarantineScore/8.
	ReadmitScore float64
	// Probation is the base hold-down served in quarantine; zero
	// defaults to 4×SweepPeriod.
	Probation sim.Time
	// HoldMax caps the exponentially grown hold-down under Damping;
	// zero defaults to 16×Probation.
	HoldMax sim.Time
	// Damping grows the hold-down as Probation·2^(flaps−1) (capped at
	// HoldMax) — the defence that bounds route churn under an
	// oscillating-BER attack. Off, every quarantine serves flat
	// Probation.
	Damping bool
	// TrapThreshold arms switch-local threshold traps: a port whose
	// error sum crosses it notifies the PerfMgr immediately instead of
	// waiting for the next sweep. Zero disables traps.
	TrapThreshold uint64
}

// Enabled reports whether the health plane should be wired.
func (h HealthParams) Enabled() bool { return h.SweepPeriod > 0 }

// Config describes one simulation run. The zero value is not runnable;
// start from DefaultConfig.
type Config struct {
	// Mesh geometry (Table 1 testbed: 4x4 = 16 nodes).
	MeshW, MeshH int
	// Params holds link/switch constants; nil means fabric defaults.
	Params *fabric.Params

	// Enforcement is the switch filtering design under test.
	Enforcement enforce.Mode
	// Auth configures ICRC-as-MAC authentication.
	Auth AuthConfig

	// NumPartitions random node groups are formed ("we partition the
	// IBA network into four random groups", section 3.1).
	NumPartitions int
	// PartitionsPerNode is Table 2's p: how many partitions each node
	// joins (default 1). Values above 1 grow the switch tables and the
	// DPT/IF lookup costs exactly as the cost model predicts. Requires
	// Auth.Enabled to be false (the authenticated workload binds one
	// QP per node to its primary partition).
	PartitionsPerNode int

	// MsgSize is the payload size per message (Table 1 MTU: 1024).
	MsgSize int
	// RealtimeLoad and BestEffortLoad are per-node offered loads as a
	// fraction of the link bandwidth; zero disables the class.
	RealtimeLoad   float64
	BestEffortLoad float64
	// RealtimeMaxQueue is the send-queue depth beyond which realtime
	// sources withhold traffic (admission control, section 3.1).
	RealtimeMaxQueue int

	// Attackers is the number of compromised nodes flooding at line
	// rate; they are drawn from the node set and send no legitimate
	// traffic.
	Attackers int
	// AttackDuty is the fraction of each AttackCycle the attack is
	// active (Figure 1: 1.0; Figure 5: 0.01).
	AttackDuty  float64
	AttackCycle sim.Time
	// AttackClass is the traffic class (and so the VL) the attacker
	// floods. A compromised node dumps packets that look like the
	// application traffic it was running, so Figure 1(a) floods the
	// realtime VL and Figure 1(b)/Figure 5 the best-effort VL.
	AttackClass fabric.Class
	// AttackPKey, when non-zero, makes every attack packet carry this
	// P_Key instead of a fresh random one — the stolen-key attack the
	// drift experiment pairs with a corrupted switch table.
	AttackPKey packet.PKey
	// AttackRate scales the attacker's injection rate as a fraction of
	// line rate. Zero or one floods flat out (the classic behaviour);
	// the congestion experiment sweeps intermediate rates.
	AttackRate float64
	// AttackIncast aims every attacker at a single victim: the lowest-
	// index co-member of the attacker's own primary partition, flooded
	// with that partition's key. A stolen intra-partition key passes
	// every enforcement design, and the single hot destination link
	// grows the congestion tree the CC annex exists to contain — the
	// congestion experiment's attack shape. Default off: attackers
	// spray random destinations with random keys as before.
	AttackIncast bool

	// Duration is the simulated time; samples before Warmup are
	// discarded.
	Duration sim.Time
	Warmup   sim.Time

	// BitErrorRate injects per-bit link corruption; the fabric's VCRC
	// and ICRC checks drop struck packets (failure-injection knob).
	BitErrorRate float64

	// TraceCapacity, when positive, attaches a packet-lifecycle trace
	// ring of that many events to the fabric; read it from
	// Cluster.Trace after Simulate.
	TraceCapacity int

	// FaultPlan, when non-nil, schedules deterministic link/switch
	// kills, BER bursts and MAD faults on the run (internal/faults).
	// Params are copied per run so the plan's mutations cannot leak into
	// other runs sharing the same Params value.
	FaultPlan *faults.Plan
	// ResweepPeriod, when positive, attaches subnet-management agents to
	// every switch and HCA and runs the SM's periodic re-sweep: dead
	// links are detected by SMP timeout, routes are recomputed around
	// them and the switches reprogrammed in-band. Read healing metrics
	// from Cluster.Resweeper after Simulate. Zero keeps the classic
	// static one-shot configuration.
	ResweepPeriod sim.Time

	// Seed makes the run reproducible.
	Seed int64

	// SM configures the subnet manager.
	SM sm.Config

	// HA configures standby subnet managers and master election; the
	// zero value runs the classic single SM.
	HA HAParams
	// Rekey configures online key-epoch rotation; the zero value keeps
	// every secret at epoch 0 for the whole run.
	Rekey RekeyParams
	// Policy configures the declarative policy plane and its drift
	// auditor; the zero value keeps the imperative bring-up path.
	Policy PolicyParams
	// Congestion configures the IBA Congestion Control Annex: switch
	// FECN marking thresholds and per-HCA congestion control tables,
	// programmed into every device by the SM at bring-up (and inherited
	// by promoted standbys through HA state sync). The zero value
	// disables congestion control — no marking, no throttling, byte-
	// identical to pre-CC builds.
	Congestion fabric.CCParams
	// Health configures the PerfMgr health plane: periodic PortCounters
	// sweeps, EWMA link scoring and proactive flaky-link quarantine.
	// The zero value disables it — no sweeps, no traps, byte-identical
	// to pre-health builds.
	Health HealthParams
}

// DefaultConfig returns the paper's Table 1 testbed with no attackers,
// no filtering and no authentication.
func DefaultConfig() Config {
	return Config{
		MeshW:            4,
		MeshH:            4,
		Params:           fabric.DefaultParams(),
		Enforcement:      enforce.NoFiltering,
		Auth:             AuthConfig{FuncID: mac.IDUMAC32},
		NumPartitions:    4,
		MsgSize:          1024,
		BestEffortLoad:   0.4,
		RealtimeMaxQueue: 8,
		AttackDuty:       1.0,
		AttackCycle:      sim.Millisecond,
		Duration:         10 * sim.Millisecond,
		Warmup:           sim.Millisecond,
		Seed:             1,
		SM:               sm.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.MeshW <= 0 || c.MeshH <= 0 {
		return fmt.Errorf("core: invalid mesh %dx%d", c.MeshW, c.MeshH)
	}
	n := c.MeshW * c.MeshH
	if c.NumPartitions <= 0 || c.NumPartitions > n {
		return fmt.Errorf("core: %d partitions for %d nodes", c.NumPartitions, n)
	}
	if c.PartitionsPerNode < 0 || c.PartitionsPerNode > c.NumPartitions {
		return fmt.Errorf("core: %d partitions per node with %d partitions", c.PartitionsPerNode, c.NumPartitions)
	}
	if c.PartitionsPerNode > 1 && c.Auth.Enabled {
		return fmt.Errorf("core: multi-partition membership is not supported with authentication enabled")
	}
	if c.Attackers < 0 || c.Attackers >= n {
		return fmt.Errorf("core: %d attackers for %d nodes", c.Attackers, n)
	}
	if c.MsgSize <= 0 || c.MsgSize > 1024 {
		return fmt.Errorf("core: message size %d outside (0,1024]", c.MsgSize)
	}
	if c.RealtimeLoad < 0 || c.RealtimeLoad > 1 || c.BestEffortLoad < 0 || c.BestEffortLoad > 1 {
		return fmt.Errorf("core: loads must be in [0,1]")
	}
	if c.RealtimeLoad == 0 && c.BestEffortLoad == 0 && c.Attackers == 0 {
		return fmt.Errorf("core: nothing to simulate")
	}
	if c.Duration <= 0 || c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("core: bad duration/warmup %v/%v", c.Duration, c.Warmup)
	}
	if c.AttackDuty <= 0 || c.AttackDuty > 1 {
		return fmt.Errorf("core: attack duty %v outside (0,1]", c.AttackDuty)
	}
	if c.Params == nil {
		return fmt.Errorf("core: nil fabric params")
	}
	if c.HA.Standbys < 0 || c.HA.Standbys >= n {
		return fmt.Errorf("core: %d SM standbys for %d nodes", c.HA.Standbys, n)
	}
	if c.HA.Enabled() {
		if c.HA.Heartbeat <= 0 {
			return fmt.Errorf("core: HA requires a positive heartbeat")
		}
		if c.HA.Lease != 0 && c.HA.Lease < c.HA.Heartbeat {
			return fmt.Errorf("core: HA lease %v shorter than heartbeat %v", c.HA.Lease, c.HA.Heartbeat)
		}
	} else if c.HA.SplitBrain {
		return fmt.Errorf("core: split-brain handling requires HA standbys")
	}
	if (c.HA.CensusWait != 0 || c.HA.CensusPeriod != 0) && !c.HA.SplitBrain {
		return fmt.Errorf("core: census settings require HA.SplitBrain")
	}
	if c.HA.CensusWait < 0 || c.HA.CensusPeriod < 0 {
		return fmt.Errorf("core: negative census settings")
	}
	if c.Rekey.Enabled() {
		if !c.Auth.Enabled || c.Auth.Level != transport.PartitionLevel {
			return fmt.Errorf("core: key rotation requires partition-level authentication")
		}
		rk := c.Rekey.withDefaults()
		if rk.Grace <= 0 || rk.Grace >= rk.Period {
			return fmt.Errorf("core: rekey grace %v must be in (0, period %v)", rk.Grace, rk.Period)
		}
		if rk.DistributionDelay < 0 || rk.DistributionDelay >= rk.Grace {
			return fmt.Errorf("core: rekey distribution delay %v must be in [0, grace %v)", rk.DistributionDelay, rk.Grace)
		}
		if rk.MergeGrace <= rk.DistributionDelay {
			return fmt.Errorf("core: merge grace %v must exceed the distribution delay %v", rk.MergeGrace, rk.DistributionDelay)
		}
	} else if c.Rekey.MergeGrace != 0 {
		return fmt.Errorf("core: merge grace requires key rotation")
	}
	if c.Policy.Enabled {
		if c.Enforcement == enforce.NoFiltering {
			return fmt.Errorf("core: the policy plane programs switch enforcement; Enforcement must not be NoFiltering")
		}
		if c.Policy.AuditPeriod < 0 {
			return fmt.Errorf("core: negative audit period %v", c.Policy.AuditPeriod)
		}
		if c.Policy.PinInvalid != 0 {
			if c.Enforcement != enforce.SIF {
				return fmt.Errorf("core: pinned invalid keys require SIF enforcement")
			}
			if c.Policy.PinInvalid >= 0x8000 || int(c.Policy.PinInvalid) <= c.NumPartitions {
				return fmt.Errorf("core: pinned invalid base %#x collides with partition bases", c.Policy.PinInvalid)
			}
		}
	} else if c.Policy.AuditPeriod != 0 || c.Policy.Repair || c.Policy.PinInvalid != 0 {
		return fmt.Errorf("core: audit/repair/pin settings require Policy.Enabled")
	}
	if c.AttackPKey != 0 && c.Attackers == 0 {
		return fmt.Errorf("core: AttackPKey set with no attackers")
	}
	if c.AttackIncast && c.Attackers == 0 {
		return fmt.Errorf("core: AttackIncast set with no attackers")
	}
	if c.AttackRate < 0 || c.AttackRate > 1 {
		return fmt.Errorf("core: attack rate %v outside [0,1]", c.AttackRate)
	}
	if err := c.Congestion.Validate(c.Params.CreditsPerVL); err != nil {
		return err
	}
	if c.Health.Enabled() {
		if c.Health.Alpha < 0 || c.Health.Alpha >= 1 {
			return fmt.Errorf("core: health EWMA alpha %v outside [0,1)", c.Health.Alpha)
		}
		if c.Health.QuarantineScore < 0 || c.Health.ReadmitScore < 0 {
			return fmt.Errorf("core: negative health score threshold")
		}
		if c.Health.QuarantineScore != 0 && c.Health.ReadmitScore > c.Health.QuarantineScore {
			return fmt.Errorf("core: readmit score %v above quarantine score %v", c.Health.ReadmitScore, c.Health.QuarantineScore)
		}
		if c.Health.Probation < 0 || c.Health.HoldMax < 0 {
			return fmt.Errorf("core: negative health hold-down")
		}
	} else if c.Health.Alpha != 0 || c.Health.QuarantineScore != 0 || c.Health.ReadmitScore != 0 ||
		c.Health.Probation != 0 || c.Health.HoldMax != 0 || c.Health.Damping || c.Health.TrapThreshold != 0 {
		return fmt.Errorf("core: health settings require Health.SweepPeriod > 0")
	}
	if c.FaultPlan != nil {
		if len(c.FaultPlan.Compromises) > 0 && !c.Rekey.Enabled() {
			return fmt.Errorf("core: KeyCompromise faults require key rotation (Rekey.Period > 0)")
		}
		for _, tc := range c.FaultPlan.Corruptions {
			if !c.Policy.Enabled {
				return fmt.Errorf("core: table-corruption faults require Policy.Enabled")
			}
			if tc.Switch == faults.SwitchAttackerIngress && c.Attackers == 0 {
				return fmt.Errorf("core: attacker-ingress corruption with no attackers")
			}
		}
	}
	return c.Params.Validate()
}
