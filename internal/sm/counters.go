package sm

import "ibasec/internal/metrics"

// SMCounter identifies one of a SubnetManager's counters.
type SMCounter uint8

// The ids of a SubnetManager's counters, in name order.
const (
	SMCCProgramMADs SMCounter = iota
	SMMKeyViolations
	SMSecretsRotated
	SMSecretsWiped
	SMSIFRegistrations
	SMTrapsReceived
	SMTrapsSent
	SMTrapsSuppressed
	numSMCounters
)

// smCounters names each id.
var smCounters = metrics.Table{Set: "sm", Names: []string{
	SMCCProgramMADs:    "cc_program_mads",
	SMMKeyViolations:   "mkey_violations",
	SMSecretsRotated:   "secrets_rotated",
	SMSecretsWiped:     "secrets_wiped",
	SMSIFRegistrations: "sif_registrations",
	SMTrapsReceived:    "traps_received",
	SMTrapsSent:        "traps_sent",
	SMTrapsSuppressed:  "traps_suppressed",
}}

// HACounter identifies one of an HA Coordinator's counters.
type HACounter uint8

// The ids of a Coordinator's counters, in name order.
const (
	HAAbdications HACounter = iota
	HACensusRounds
	HAContainedTakeovers
	HAContainments
	HAHeartbeatsSent
	HAMADsToDeadSM
	HAMerges
	HASyncStateRejected
	HASyncsAdopted
	HASyncsRejected
	HATakeovers
	numHACounters
)

// haCounters names each id.
var haCounters = metrics.Table{Set: "ha", Names: []string{
	HAAbdications:        "abdications",
	HACensusRounds:       "census_rounds",
	HAContainedTakeovers: "contained_takeovers",
	HAContainments:       "containments",
	HAHeartbeatsSent:     "heartbeats_sent",
	HAMADsToDeadSM:       "mads_to_dead_sm",
	HAMerges:             "merges",
	HASyncStateRejected:  "sync_state_rejected",
	HASyncsAdopted:       "syncs_adopted",
	HASyncsRejected:      "syncs_rejected",
	HATakeovers:          "takeovers",
}}

// RotatorCounter identifies one of a Rotator's counters.
type RotatorCounter uint8

// The ids of a Rotator's counters, in name order.
const (
	RotEpochRollovers RotatorCounter = iota
	RotForcedRotations
	numRotatorCounters
)

// rotatorCounters names each id.
var rotatorCounters = metrics.Table{Set: "rotator", Names: []string{
	RotEpochRollovers:  "epoch_rollovers",
	RotForcedRotations: "forced_rotations",
}}

// ResweepCounter identifies one of a Resweeper's counters.
type ResweepCounter uint8

// The ids of a Resweeper's counters, in name order.
const (
	ResweepDetections ResweepCounter = iota
	ResweepLostLinks
	ResweepReroutes
	ResweepRestoredLinks
	ResweepSweeps
	numResweepCounters
)

// resweepCounters names each id.
var resweepCounters = metrics.Table{Set: "resweep", Names: []string{
	ResweepDetections:    "detections",
	ResweepLostLinks:     "lost_links",
	ResweepReroutes:      "reroutes",
	ResweepRestoredLinks: "restored_links",
	ResweepSweeps:        "sweeps",
}}

// PerfCounter identifies one of a PerfMgr's counters.
type PerfCounter uint8

// The ids of a PerfMgr's counters, in name order.
const (
	PMHealthSweepMADs PerfCounter = iota
	PMHealthTrapMADs
	PMHealthUnanswered
	PMQuarantineRefused
	PMQuarantines
	PMReadmits
	PMRerouteMADs
	PMSweeps
	PMTrapRearmMADs
	numPerfCounters
)

// perfCounters names each id.
var perfCounters = metrics.Table{Set: "perfmgr", Names: []string{
	PMHealthSweepMADs:   "health_sweep_mads",
	PMHealthTrapMADs:    "health_trap_mads",
	PMHealthUnanswered:  "health_unanswered",
	PMQuarantineRefused: "quarantine_refused",
	PMQuarantines:       "quarantines",
	PMReadmits:          "readmits",
	PMRerouteMADs:       "reroute_mads",
	PMSweeps:            "sweeps",
	PMTrapRearmMADs:     "trap_rearm_mads",
}}

// BoardCounter identifies one of a Baseboard's counters.
type BoardCounter uint8

// The ids of a Baseboard's counters, in name order.
const (
	BoardBKeyViolations BoardCounter = iota
	numBoardCounters
)

// boardCounters names each id.
var boardCounters = metrics.Table{Set: "baseboard", Names: []string{
	BoardBKeyViolations: "bkey_violations",
}}
