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
	// ThroughputGbps, when non-zero, charges each outgoing message a
	// MAC-generation delay of size/throughput instead of the default
	// single pipeline cycle — modelling a CA whose MAC engine runs
	// slower than the link (the section 5.2/7 "can authentication keep
	// up with IBA link speed?" question). Zero keeps the paper's
	// 1-cycle pipelined assumption.
	ThroughputGbps float64
}

// Each SM plane's configuration is defined beside the plane — with its
// Enabled, its Validate and the defaults its constructor applies — and
// named here for Config: standby SMs and master election, online
// key-epoch rotation, and the PerfMgr health plane. Config.Congestion
// (fabric.CCParams) and Config.SM (sm.Config) are the same arrangement
// without an alias.
type (
	HAParams     = sm.HAConfig
	RekeyParams  = sm.RotationConfig
	HealthParams = sm.PerfConfig
)

// PolicyParams configures the declarative security policy plane
// (internal/policy). The zero value disables it entirely: partitions
// are created imperatively, exactly the pre-policy behaviour.
type PolicyParams struct {
	// Enabled routes bring-up through a compiled policy document: the
	// run's partition grouping is synthesized into a policy.Document,
	// compiled to per-switch intent, and programmed through the SM.
	// The SM then carries the marshalled document (synced to HA
	// standbys).
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
	// IBA network into four random groups", section 3.1); each node
	// joins one.
	NumPartitions int

	// MsgSize is the payload size per message (Table 1 MTU: 1024).
	MsgSize int
	// RealtimeLoad and BestEffortLoad are per-node offered loads as a
	// fraction of the link bandwidth; zero disables the class.
	RealtimeLoad   float64
	BestEffortLoad float64

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

	// TraceCapacity, when positive, attaches a packet-lifecycle trace
	// ring of that many events to the fabric; read it from
	// Cluster.Trace after Simulate.
	TraceCapacity int

	// FaultPlan, when non-nil, schedules deterministic link kills,
	// fabric bisections, BER bursts and management-plane faults on the
	// run (internal/faults).
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

// realtimeMaxQueue is the send-queue depth beyond which realtime sources
// withhold traffic (admission control, section 3.1).
const realtimeMaxQueue = 8

// DefaultConfig returns the paper's Table 1 testbed with no attackers,
// no filtering and no authentication.
func DefaultConfig() Config {
	return Config{
		MeshW:          4,
		MeshH:          4,
		Params:         fabric.DefaultParams(),
		Enforcement:    enforce.NoFiltering,
		Auth:           AuthConfig{FuncID: mac.IDUMAC32},
		NumPartitions:  4,
		MsgSize:        1024,
		BestEffortLoad: 0.4,
		AttackDuty:     1.0,
		AttackCycle:    sim.Millisecond,
		Duration:       10 * sim.Millisecond,
		Warmup:         sim.Millisecond,
		Seed:           1,
		SM:             sm.DefaultConfig(),
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
	if c.Attackers < 0 || c.Attackers >= n {
		return fmt.Errorf("core: %d attackers for %d nodes", c.Attackers, n)
	}
	if c.MsgSize <= 0 || c.MsgSize > 1024 {
		return fmt.Errorf("core: message size %d outside (0,1024]", c.MsgSize)
	}
	// Each float range check is written so that NaN fails it.
	if !(c.RealtimeLoad >= 0 && c.RealtimeLoad <= 1 && c.BestEffortLoad >= 0 && c.BestEffortLoad <= 1) {
		return fmt.Errorf("core: loads must be in [0,1]")
	}
	if c.RealtimeLoad == 0 && c.BestEffortLoad == 0 && c.Attackers == 0 {
		return fmt.Errorf("core: nothing to simulate")
	}
	if c.Duration <= 0 || c.Warmup < 0 || c.Warmup >= c.Duration {
		return fmt.Errorf("core: bad duration/warmup %v/%v", c.Duration, c.Warmup)
	}
	if !(c.AttackDuty > 0 && c.AttackDuty <= 1) {
		return fmt.Errorf("core: attack duty %v outside (0,1]", c.AttackDuty)
	}
	if c.Params == nil {
		return fmt.Errorf("core: nil fabric params")
	}
	// Each plane validates its own config; what stays here are the rules
	// that span planes.
	for _, err := range []error{
		c.HA.Validate(c.Duration),
		c.Rekey.Validate(c.Duration),
		c.Health.Validate(),
		c.Congestion.Validate(c.Params.CreditsPerVL),
	} {
		if err != nil {
			return err
		}
	}
	if c.HA.Standbys >= n {
		return fmt.Errorf("core: %d SM standbys for %d nodes", c.HA.Standbys, n)
	}
	if c.Rekey.Enabled() && (!c.Auth.Enabled || c.Auth.Level != transport.PartitionLevel) {
		return fmt.Errorf("core: key rotation requires partition-level authentication")
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
	if !(c.AttackRate >= 0 && c.AttackRate <= 1) {
		return fmt.Errorf("core: attack rate %v outside [0,1]", c.AttackRate)
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
