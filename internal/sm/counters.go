package sm

import "ibasec/internal/metrics"

// SMCounter identifies one of a SubnetManager's counters.
type SMCounter uint8

// The ids of a SubnetManager's counters, in name order.
const (
	SMAltPathsProgrammed SMCounter = iota
	SMAltRegistrations
	SMCCLogQueries
	SMCCProgramMADs
	SMMembersRemoved
	SMMKeyViolations
	SMPartitionsCreated
	SMPathRecords
	SMSecretsRotated
	SMSecretsWiped
	SMSIFRegistrations
	SMTrapsReceived
	SMTrapsSent
	SMTrapsSuppressed
	SMTrapsUnlocatable
	numSMCounters
)

// smCounters names each id.
var smCounters = metrics.Table{Set: "sm", Names: []string{
	SMAltPathsProgrammed: "alt_paths_programmed",
	SMAltRegistrations:   "alt_registrations",
	SMCCLogQueries:       "cc_log_queries",
	SMCCProgramMADs:      "cc_program_mads",
	SMMembersRemoved:     "members_removed",
	SMMKeyViolations:     "mkey_violations",
	SMPartitionsCreated:  "partitions_created",
	SMPathRecords:        "path_records",
	SMSecretsRotated:     "secrets_rotated",
	SMSecretsWiped:       "secrets_wiped",
	SMSIFRegistrations:   "sif_registrations",
	SMTrapsReceived:      "traps_received",
	SMTrapsSent:          "traps_sent",
	SMTrapsSuppressed:    "traps_suppressed",
	SMTrapsUnlocatable:   "traps_unlocatable",
}}

// HACounter identifies one of an HA Coordinator's counters.
type HACounter uint8

// The ids of a Coordinator's counters, in name order.
const (
	HAAbdications HACounter = iota
	HACensusPings
	HACensusPongsReceived
	HACensusPongsSent
	HACensusRepings
	HACensusRounds
	HAContainedTakeovers
	HAContainments
	HAHeartbeatsReceived
	HAHeartbeatsSent
	HAMADsToDeadSM
	HAMasterKills
	HAMerges
	HASyncDigestMismatch
	HASyncStateRejected
	HASyncsAdopted
	HASyncsRejected
	HATakeovers
	HAUncontainments
	numHACounters
)

// haCounters names each id.
var haCounters = metrics.Table{Set: "ha", Names: []string{
	HAAbdications:         "abdications",
	HACensusPings:         "census_pings",
	HACensusPongsReceived: "census_pongs_received",
	HACensusPongsSent:     "census_pongs_sent",
	HACensusRepings:       "census_repings",
	HACensusRounds:        "census_rounds",
	HAContainedTakeovers:  "contained_takeovers",
	HAContainments:        "containments",
	HAHeartbeatsReceived:  "heartbeats_received",
	HAHeartbeatsSent:      "heartbeats_sent",
	HAMADsToDeadSM:        "mads_to_dead_sm",
	HAMasterKills:         "master_kills",
	HAMerges:              "merges",
	HASyncDigestMismatch:  "sync_digest_mismatch",
	HASyncStateRejected:   "sync_state_rejected",
	HASyncsAdopted:        "syncs_adopted",
	HASyncsRejected:       "syncs_rejected",
	HATakeovers:           "takeovers",
	HAUncontainments:      "uncontainments",
}}

// RotatorCounter identifies one of a Rotator's counters.
type RotatorCounter uint8

// The ids of a Rotator's counters, in name order.
const (
	RotEpochRollovers RotatorCounter = iota
	RotEpochsIssued
	RotForcedRotations
	RotRetiresScheduled
	numRotatorCounters
)

// rotatorCounters names each id.
var rotatorCounters = metrics.Table{Set: "rotator", Names: []string{
	RotEpochRollovers:   "epoch_rollovers",
	RotEpochsIssued:     "epochs_issued",
	RotForcedRotations:  "forced_rotations",
	RotRetiresScheduled: "retires_scheduled",
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
	ResweepSweepsSkipped
	numResweepCounters
)

// resweepCounters names each id.
var resweepCounters = metrics.Table{Set: "resweep", Names: []string{
	ResweepDetections:    "detections",
	ResweepLostLinks:     "lost_links",
	ResweepReroutes:      "reroutes",
	ResweepRestoredLinks: "restored_links",
	ResweepSweeps:        "sweeps",
	ResweepSweepsSkipped: "sweeps_skipped",
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
	PMSweepsSkipped
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
	PMSweepsSkipped:     "sweeps_skipped",
	PMTrapRearmMADs:     "trap_rearm_mads",
}}

// BoardCounter identifies one of a Baseboard's counters.
type BoardCounter uint8

// The ids of a Baseboard's counters, in name order.
const (
	BoardBKeyViolations BoardCounter = iota
	BoardFirmwareOps
	BoardPowerOps
	numBoardCounters
)

// boardCounters names each id.
var boardCounters = metrics.Table{Set: "baseboard", Names: []string{
	BoardBKeyViolations: "bkey_violations",
	BoardFirmwareOps:    "firmware_ops",
	BoardPowerOps:       "power_ops",
}}
