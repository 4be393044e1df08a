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
// The package re-exports what a program outside the module's internal/
// tree needs to configure and run a simulation and to regenerate the
// paper's own figures and tables — the names examples/, bench/ and the
// root tests use. The implementation, and every beyond-paper experiment
// (cmd/ibsim drives those through internal/core directly), lives in the
// internal/ subpackages.
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
// cmd/ibsim CLI prints them and the robustness sweeps beside them.
package ibasec

import (
	"context"
	"time"

	"ibasec/internal/attack"
	"ibasec/internal/core"
	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
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
	// HealthParams configures the PerfMgr health plane through
	// Config.Health; the zero value disables it.
	HealthParams = core.HealthParams
	// Results holds a run's measurements (delays in microseconds).
	Results = core.Results
	// Cluster is a fully wired simulation instance (advanced use; see
	// Build).
	Cluster = core.Cluster
)

// Row types of the entry points below.
type (
	Fig1Row     = core.Fig1Row
	Fig5Row     = core.Fig5Row
	Fig6Row     = core.Fig6Row
	Table2Row   = core.Table2Row
	Table4Row   = core.Table4Row
	AuthRateRow = core.AuthRateRow
	// AttackOutcome is one row of the Table 3 attack matrix.
	AttackOutcome = attack.Outcome
)

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

// Build assembles a cluster without starting traffic (advanced use: the
// fabric, SM, key management and endpoints every experiment runs on, for
// callers that drive them by hand, as examples/secure-rdma does).
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
// authenticated IBA, each on a 2x2 cluster from Build.
func AttackMatrix(seed int64) []AttackOutcome { return attack.Matrix(seed) }

// PaperTable4Rates returns the paper's Table 4 throughput column for use
// with AuthRateSweep.
func PaperTable4Rates() map[string]float64 { return core.PaperTable4Rates() }

// Parallel experiment orchestration (internal/runner). A Pool executes
// a sweep's simulation points on a bounded worker pool with panic
// recovery and live progress. Each job's result keeps its job's place,
// so output is byte-identical to the serial harness at a fixed seed
// regardless of worker count.
type (
	// Pool is a bounded worker pool for experiment sweeps.
	Pool = runner.Pool
	// PoolOptions configures a Pool (workers, progress writer,
	// watchdog).
	PoolOptions = runner.Options
)

// NewPool returns a worker pool; Workers <= 0 means GOMAXPROCS.
func NewPool(opts PoolOptions) *Pool { return runner.New(opts) }

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

// AuthRateSweep runs the section 5.2/7 link-speed question: cluster delay
// when the MAC engine digests messages at each given throughput (Gb/s).
func AuthRateSweep(ctx context.Context, pool *Pool, rates map[string]float64, load float64, base Config) ([]AuthRateRow, error) {
	return core.AuthRateSweep(ctx, pool, rates, load, base)
}

// CSVTable is one experiment's rows rendered for an encoding/csv writer.
// Table is the only way to build one: cmd/ibsim and the
// golden-determinism tests both go through it, so a golden diff can
// only mean the simulation itself changed.
type CSVTable = core.CSVTable

// Table renders rows as the experiment CSV called name, one column per
// `csv`-tagged field of the row type (see core.Table for the rules).
func Table[T any](name string, rows []T) CSVTable { return core.Table(name, rows) }
