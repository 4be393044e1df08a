// Package ibasec is a from-scratch reproduction of "Security Enhancement
// in InfiniBand Architecture" (Lee, Kim, Yousif — IPPS 2005): a
// packet-level InfiniBand fabric simulator plus the paper's three
// security mechanisms —
//
//  1. stateful partition enforcement in switches (DPT / IF / SIF,
//     section 3),
//  2. partition-level and QP-level authentication-key management
//     (section 4), and
//  3. ICRC-as-MAC packet authentication that stores a 32-bit tag in the
//     Invariant CRC field without changing the IBA packet format
//     (section 5).
//
// The package re-exports the library's public surface; the underlying
// implementation lives in internal/ subpackages (simulator, packet
// formats, CRC, UMAC, fabric, transport, subnet manager, workloads).
//
// Quick start:
//
//	cfg := ibasec.DefaultConfig()
//	cfg.Attackers = 4
//	res, err := ibasec.Run(cfg)
//	// res.BestEffort.Queuing.Mean() is the paper's queuing-time metric.
//
// Every table and figure of the paper's evaluation has a regeneration
// entry point here (Fig1, Fig5, Fig6, Table2, Table4, AttackMatrix); the
// cmd/ibsim CLI prints them.
package ibasec

import (
	"context"
	"time"

	"ibasec/internal/attack"
	"ibasec/internal/core"
	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// Core configuration and results.
type (
	// Config describes one simulation run; start from DefaultConfig.
	Config = core.Config
	// AuthConfig selects the authentication mechanism and key level.
	AuthConfig = core.AuthConfig
	// HAParams configures standby subnet managers and master election;
	// the zero value runs the classic single SM.
	HAParams = core.HAParams
	// RekeyParams configures online key-epoch rotation; the zero value
	// keeps every secret at epoch 0.
	RekeyParams = core.RekeyParams
	// PolicyParams configures the declarative security policy plane and
	// its continuous drift auditor; the zero value keeps the imperative
	// bring-up path.
	PolicyParams = core.PolicyParams
	// Results holds a run's measurements (delays in microseconds).
	Results = core.Results
	// Cluster is a fully wired simulation instance (advanced use).
	Cluster = core.Cluster
)

// Experiment row types.
type (
	Fig1Row       = core.Fig1Row
	Fig5Row       = core.Fig5Row
	Fig6Row       = core.Fig6Row
	Table2Row     = core.Table2Row
	Table4Row     = core.Table4Row
	AuthRateRow   = core.AuthRateRow
	SMFloodRow    = core.SMFloodRow
	ScaleRow      = core.ScaleRow
	FaultRow      = core.FaultRow
	FailoverRow   = core.FailoverRow
	SplitBrainRow = core.SplitBrainRow
	APMRow        = core.APMRow
	DriftRow      = core.DriftRow
	CongestionRow = core.CongestionRow
	HealthRow     = core.HealthRow
	// AttackOutcome is one row of the Table 3 attack matrix.
	AttackOutcome = attack.Outcome
)

// APMArm is one recovery configuration of the apm experiment.
type APMArm = core.APMArm

// Recovery arms: plain timeout, explicit NAK, NAK plus path migration
// with the migrating sources SIF-registered, and the same without
// registration (the enforcement drop cliff).
const (
	ArmTimeout         = core.ArmTimeout
	ArmNAK             = core.ArmNAK
	ArmAPMRegistered   = core.ArmAPMRegistered
	ArmAPMUnregistered = core.ArmAPMUnregistered
)

// Deterministic fault injection and self-healing (internal/faults and the
// SM's periodic re-sweep).
type (
	// FaultPlan is a complete, seed-deterministic fault schedule: link and
	// switch down/up events, bit-error bursts, MAD drop/delay.
	FaultPlan = faults.Plan
	// LinkKill, SwitchKill, BERBurst and MADLoss are FaultPlan entries.
	LinkKill   = faults.LinkKill
	SwitchKill = faults.SwitchKill
	BERBurst   = faults.BERBurst
	MADLoss    = faults.MADLoss
	// SMKill kills the active subnet manager; KeyCompromise forces an
	// out-of-cycle epoch rotation of one partition.
	SMKill        = faults.SMKill
	KeyCompromise = faults.KeyCompromise
	// TableCorruption mutates a switch's programmed enforcement state
	// out-of-band — the drift the policy auditor exists to catch.
	TableCorruption = faults.TableCorruption
	// CorruptOp selects what a TableCorruption does.
	CorruptOp = faults.CorruptOp
	// LinkID names one full-duplex link from its switch side.
	LinkID = topology.LinkID
	// LinkBER degrades one link's bit-error rate for a window — the
	// gray-failure fault the health plane exists to catch.
	LinkBER = faults.LinkBER
	// Resweeper is the SM's periodic self-healing loop (Cluster.Resweeper
	// when Config.ResweepPeriod > 0).
	Resweeper = sm.Resweeper
	// HealEvent reports one completed healing round.
	HealEvent = sm.HealEvent
	// PerfMgr is the health plane's sweep/score/quarantine loop
	// (Cluster.PerfMgr when Config.Health is enabled).
	PerfMgr = sm.PerfMgr
	// HealthEvent reports one quarantine transition.
	HealthEvent = sm.HealthEvent
	// HealthParams configures the health plane through Config.Health;
	// the zero value disables it.
	HealthParams = core.HealthParams
	// PortCounters is one port's IBA error-counter block (saturating,
	// PerfMgr-swept).
	PortCounters = fabric.PortCounters
)

// OscillatingBER builds the adversarial flapping-link plan: the link's
// bit-error rate toggles between rate and clean every half period over
// [from, until) — the route-churn attack flap damping bounds.
func OscillatingBER(link LinkID, rate float64, period, from, until Time) []LinkBER {
	return faults.OscillatingBER(link, rate, period, from, until)
}

// Table-corruption operations and symbolic switch targets (resolved
// against the built cluster: the attacker's or the victim's ingress).
const (
	CorruptAddValid      = faults.CorruptAddValid
	CorruptRemoveValid   = faults.CorruptRemoveValid
	CorruptClearInvalid  = faults.CorruptClearInvalid
	CorruptDropAltSource = faults.CorruptDropAltSource
	CorruptDeactivate    = faults.CorruptDeactivate

	SwitchAttackerIngress = faults.SwitchAttackerIngress
	SwitchVictimIngress   = faults.SwitchVictimIngress
)

// ChaosPlan builds a deterministic random plan of transient inter-switch
// link outages for a w×h mesh that never partitions the fabric; same
// seed, same plan.
func ChaosPlan(seed int64, w, h, kills int, from, until Time) *FaultPlan {
	return faults.Chaos(seed, w, h, kills, from, until)
}

// Mode is a switch partition-enforcement design.
type Mode = enforce.Mode

// Enforcement modes (paper section 3.3).
const (
	NoFiltering = enforce.NoFiltering
	DPT         = enforce.DPT
	IF          = enforce.IF
	SIF         = enforce.SIF
)

// KeyLevel selects the authentication-key management scheme.
type KeyLevel = transport.KeyLevel

// Key management levels (paper sections 4.2-4.3).
const (
	PartitionLevel = transport.PartitionLevel
	QPLevel        = transport.QPLevel
)

// ArbitrationMode selects the fabric's VL arbiter.
type ArbitrationMode = fabric.ArbitrationMode

// VL arbiter choices (strict priority is the paper's default; weighted is
// the IBA 7.6.9 two-table design).
const (
	ArbStrictPriority = fabric.ArbStrictPriority
	ArbWeighted       = fabric.ArbWeighted
)

// CCParams configures the IBA Congestion Control Annex (switch FECN
// marking thresholds and per-HCA congestion control tables) through
// Config.Congestion; the zero value disables congestion control.
type CCParams = fabric.CCParams

// DefaultCCParams returns the congestion-control settings the
// congestion experiment uses for its CC-on arms.
func DefaultCCParams() CCParams { return core.DefaultCCParams() }

// Class is a traffic class.
type Class = fabric.Class

// Traffic classes (Table 1's two workloads plus the management lane).
const (
	ClassBestEffort = fabric.ClassBestEffort
	ClassRealtime   = fabric.ClassRealtime
	ClassManagement = fabric.ClassManagement
)

// Authentication function IDs for AuthConfig.FuncID (stored in the BTH
// Resv8a byte on the wire).
const (
	AuthHMACMD5  = mac.IDHMACMD5
	AuthHMACSHA1 = mac.IDHMACSHA1
	AuthUMAC32   = mac.IDUMAC32
)

// Time aliases for configuring durations.
type Time = sim.Time

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's Table 1 testbed configuration: a 4x4
// mesh of 5-port switches, 2.5 Gb/s links, 16 VLs per link, MTU 1024.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run simulates one configuration and returns its measurements.
func Run(cfg Config) (*Results, error) { return core.Run(cfg) }

// Build assembles a cluster without starting traffic (advanced use).
func Build(cfg Config) (*Cluster, error) { return core.Build(cfg) }

// Table2 evaluates the partition-enforcement cost model for p partitions
// per node with attack probability prAttack and average invalid-table
// size avgInvalid.
func Table2(p int, prAttack, avgInvalid float64) []Table2Row {
	return core.Table2Rows(p, prAttack, avgInvalid)
}

// Table4 measures the MAC algorithms on msgBytes messages for roughly
// budget wall time each, reporting Gb/s, cycles/byte at cpuGHz, and
// forgery probability.
func Table4(msgBytes int, budget time.Duration, cpuGHz float64) []Table4Row {
	return core.Table4(msgBytes, budget, cpuGHz)
}

// AttackMatrix runs the Table 3 key-theft scenarios against plain and
// authenticated IBA.
func AttackMatrix(seed int64) []AttackOutcome { return attack.Matrix(seed) }

// PaperTable4Rates returns the paper's Table 4 throughput column for use
// with AuthRateSweep.
func PaperTable4Rates() map[string]float64 { return core.PaperTable4Rates() }

// Parallel experiment orchestration (internal/runner). A Pool executes
// a sweep's simulation points on a bounded worker pool with panic
// recovery, bounded retry, live progress, and — when a Manifest is
// attached — an append-only result store that lets interrupted runs
// resume without re-executing finished points. Results are reassembled
// by job index, so output is byte-identical to the serial harness at a
// fixed seed regardless of worker count.
type (
	// Pool is a bounded worker pool for experiment sweeps.
	Pool = runner.Pool
	// PoolOptions configures a Pool (workers, retries, backoff,
	// progress writer, manifest).
	PoolOptions = runner.Options
	// Manifest is the append-only JSON-lines result store.
	Manifest = runner.Store
)

// NewPool returns a worker pool; Workers <= 0 means GOMAXPROCS.
func NewPool(opts PoolOptions) *Pool { return runner.New(opts) }

// OpenManifest opens (or creates) the JSON-lines result manifest at
// path. label fingerprints the run configuration; when resume is true
// and the existing manifest carries the same label, completed points
// are served from it instead of re-running.
func OpenManifest(path, label string, resume bool) (*Manifest, error) {
	return runner.Open(path, label, resume)
}

// DeriveSeed deterministically derives a per-job seed from a base seed,
// an experiment name and a point key.
func DeriveSeed(base int64, experiment, key string) int64 {
	return runner.DeriveSeed(base, experiment, key)
}

// The sweeps. Each takes a ctx that cancels between simulation points
// and an optional pool; a nil pool runs the points serially, with the
// same bytes as any worker count.

// Fig1 regenerates Figure 1: queuing time and network latency versus the
// number of line-rate attackers, for the given traffic class.
func Fig1(ctx context.Context, pool *Pool, class Class, maxAttackers int, base Config) ([]Fig1Row, error) {
	return core.Fig1(ctx, pool, class, maxAttackers, base)
}

// Fig5 regenerates Figure 5: the NoFiltering/DPT/IF/SIF delay comparison
// across input loads under a duty-cycled four-attacker DoS.
func Fig5(ctx context.Context, pool *Pool, loads []float64, attackDuty float64, base Config) ([]Fig5Row, error) {
	return core.Fig5(ctx, pool, loads, attackDuty, base)
}

// Fig6 regenerates Figure 6: authentication and key-initialization
// overhead (No Key vs With Key) across input loads.
func Fig6(ctx context.Context, pool *Pool, loads []float64, level KeyLevel, base Config) ([]Fig6Row, error) {
	return core.Fig6(ctx, pool, loads, level, base)
}

// SweepDuty is a beyond-paper ablation: SIF exposure versus attack duty
// cycle at a fixed load.
func SweepDuty(ctx context.Context, pool *Pool, duties []float64, load float64, base Config) ([]Fig5Row, error) {
	return core.SweepDuty(ctx, pool, duties, load, base)
}

// AuthRateSweep runs the section 5.2/7 link-speed question: cluster delay
// when the MAC engine digests messages at each given throughput (Gb/s).
func AuthRateSweep(ctx context.Context, pool *Pool, rates map[string]float64, load float64, base Config) ([]AuthRateRow, error) {
	return core.AuthRateSweep(ctx, pool, rates, load, base)
}

// SMFloodSweep quantifies the section-7 management-DoS attack: SIF
// registration latency as junk MADs flood the Subnet Manager.
func SMFloodSweep(ctx context.Context, pool *Pool, rates []float64, base Config) ([]SMFloodRow, error) {
	return core.SMFloodSweep(ctx, pool, rates, base)
}

// ScaleSweep measures DoS damage across mesh sizes (beyond-paper
// ablation).
func ScaleSweep(ctx context.Context, pool *Pool, sizes [][2]int, base Config) ([]ScaleRow, error) {
	return core.ScaleSweep(ctx, pool, sizes, base)
}

// FaultsSweep runs the chaos experiment: deterministic link outages and
// bit-error bursts against a self-healing subnet, sweeping BER ×
// concurrent link kills per enforcement design.
func FaultsSweep(ctx context.Context, pool *Pool, bers []float64, kills []int, base Config) ([]FaultRow, error) {
	return core.FaultsSweep(ctx, pool, bers, kills, base)
}

// FailoverSweep runs the SM-failover / key-rotation experiment: the
// master SM is killed mid-run (and, when rotation is on, one partition
// key force-rotated after a compromise), sweeping standby count ×
// heartbeat interval × rekey period.
func FailoverSweep(ctx context.Context, pool *Pool, standbys []int, heartbeatsUS []int, rekeysUS []int, base Config) ([]FailoverRow, error) {
	return core.FailoverSweep(ctx, pool, standbys, heartbeatsUS, rekeysUS, base)
}

// SplitBrainSweep runs the split-brain experiment: the mesh is bisected
// mid-run with the master and the standby on opposite sides of the cut,
// each island elects or keeps a contained master, and the heal drives
// the merge protocol — abdication, bounded re-sweep, key-epoch
// reconciliation — sweeping partition duration × heartbeat × rekey
// period. All axes are in microseconds; a rekey of 0 disables rotation.
func SplitBrainSweep(ctx context.Context, pool *Pool, partitionsUS, heartbeatsUS, rekeysUS []int, base Config) ([]SplitBrainRow, error) {
	return core.SplitBrainSweep(ctx, pool, partitionsUS, heartbeatsUS, rekeysUS, base)
}

// APMSweep runs the RC recovery experiment: a mid-run primary-path link
// kill (plus optional BER bursts) against RC probe flows, sweeping BER ×
// link kills × recovery arm (timeout-only, explicit NAK, NAK+APM with
// SIF-registered alternate sources, NAK+APM unregistered).
func APMSweep(ctx context.Context, pool *Pool, bers []float64, kills []int, base Config) ([]APMRow, error) {
	return core.APMSweep(ctx, pool, bers, kills, base)
}

// DriftSweep runs the policy-drift experiment: switch enforcement state
// is corrupted out-of-band mid-run and the declarative policy plane's
// auditor detects (and optionally repairs) the divergence, sweeping
// enforcement design × audit period × repair arm. Periods are in
// microseconds; 0 runs the no-auditor baseline.
func DriftSweep(ctx context.Context, pool *Pool, periodsUS []int, base Config) ([]DriftRow, error) {
	return core.DriftSweep(ctx, pool, periodsUS, base)
}

// HealthSweep runs the flaky-link health-plane experiment: one central
// inter-switch link under a stepped BER ramp or an adversarial
// oscillating-BER attack, with the PerfMgr off, on undamped, or on with
// flap damping, measuring detection latency, loss before/after
// quarantine, false positives, route churn and MAD overhead.
func HealthSweep(ctx context.Context, pool *Pool, bers []float64, base Config) ([]HealthRow, error) {
	return core.HealthSweep(ctx, pool, bers, base)
}

// CongestionSweep runs the congestion-control experiment: one attacker
// floods the best-effort VL for the first 60% of the run and the IBA
// Congestion Control Annex (switch FECN marking, destination BECN/CNP
// reflection, source-side CCT injection throttling) is compared against
// the same flood with the annex off, sweeping enforcement design ×
// attacker injection rate × CC arm.
func CongestionSweep(ctx context.Context, pool *Pool, rates []float64, base Config) ([]CongestionRow, error) {
	return core.CongestionSweep(ctx, pool, rates, base)
}

// CSVTable is one experiment's rows rendered for an encoding/csv writer.
// The renderers below are the single source of truth for experiment CSV
// formatting: cmd/ibsim and the golden-determinism tests both go through
// them, so a golden diff can only mean the simulation itself changed.
type CSVTable = core.CSVTable

// Fig1CSV renders a Figure 1 sweep under the given table name.
func Fig1CSV(name string, rows []Fig1Row) CSVTable { return core.Fig1CSV(name, rows) }

// Fig5CSV renders the enforcement-mode delay comparison (Figure 5).
func Fig5CSV(rows []Fig5Row) CSVTable { return core.Fig5CSV(rows) }

// Fig6CSV renders the authentication-overhead sweep (Figure 6).
func Fig6CSV(rows []Fig6Row) CSVTable { return core.Fig6CSV(rows) }

// Table2CSV renders the enforcement cost model (Table 2).
func Table2CSV(rows []Table2Row) CSVTable { return core.Table2CSV(rows) }

// Table4CSV renders the host-timed MAC throughput measurement (Table 4).
func Table4CSV(rows []Table4Row) CSVTable { return core.Table4CSV(rows) }

// SweepDutyCSV renders the SIF duty-cycle ablation.
func SweepDutyCSV(rows []Fig5Row) CSVTable { return core.SweepDutyCSV(rows) }

// AuthRateCSV renders the MAC-engine-speed ablation.
func AuthRateCSV(rows []AuthRateRow) CSVTable { return core.AuthRateCSV(rows) }

// SMFloodCSV renders the management-DoS sweep.
func SMFloodCSV(rows []SMFloodRow) CSVTable { return core.SMFloodCSV(rows) }

// ScaleCSV renders the mesh-size ablation.
func ScaleCSV(rows []ScaleRow) CSVTable { return core.ScaleCSV(rows) }

// FaultsCSV renders the chaos sweep (link kills + BER bursts).
func FaultsCSV(rows []FaultRow) CSVTable { return core.FaultsCSV(rows) }

// FailoverCSV renders the SM-failover / key-rotation sweep.
func FailoverCSV(rows []FailoverRow) CSVTable { return core.FailoverCSV(rows) }

// SplitBrainCSV renders the split-brain / merge-reconciliation sweep.
func SplitBrainCSV(rows []SplitBrainRow) CSVTable { return core.SplitBrainCSV(rows) }

// APMCSV renders the RC recovery / path-migration sweep.
func APMCSV(rows []APMRow) CSVTable { return core.APMCSV(rows) }

// DriftCSV renders the policy-drift sweep.
func DriftCSV(rows []DriftRow) CSVTable { return core.DriftCSV(rows) }

// CongestionCSV renders the congestion-control sweep.
func CongestionCSV(rows []CongestionRow) CSVTable { return core.CongestionCSV(rows) }

// HealthCSV renders the flaky-link health-plane sweep.
func HealthCSV(rows []HealthRow) CSVTable { return core.HealthCSV(rows) }
