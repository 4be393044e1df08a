package transport

import "ibasec/internal/metrics"

// EndpointCounter identifies one of an Endpoint's counters.
type EndpointCounter uint8

// The ids of an Endpoint's counters, in name order.
const (
	EpAuthEpochExpired EndpointCounter = iota
	EpAuthFail
	EpAuthMissing
	EpAuthNoKey
	EpAuthOK
	EpAuthOKGrace
	EpAuthUnsupported
	EpDelivered
	EpDropNoQP
	EpDropUnhandledOpcode
	EpGSIIssueFailed
	EpGSIMalformed
	EpGSINoTarget
	EpGSIReceived
	EpGSISent
	EpGSIUnexpected
	EpPacketsSigned
	EpQKeyEstablished
	EpQKeyRequests
	EpQKeyViolations
	EpRCAccepted
	EpRCAckSealFailed
	EpRCAcksReceived
	EpRCAcksSent
	EpRCBECNReceived
	EpRCBECNSent
	EpRCBroken
	EpRCConnects
	EpRCDuplicates
	EpRCEstablished
	EpRCMigrations
	EpRCNAKsReceived
	EpRCNAKsSent
	EpRCOutOfOrder
	EpRCRearms
	EpRCResealFailed
	EpRCRetransBytes
	EpRCRetransmissions
	EpRCSent
	EpRDMABoundsViolations
	EpRDMAReadCompleted
	EpRDMAReadSealFailed
	EpRDMAReadSent
	EpRDMAReadUnexpected
	EpRDMAReads
	EpRDMASent
	EpRDMAWrites
	EpReplayDrops
	EpRKeyViolations
	EpUCConnects
	EpUCSent
	EpUDSent
	numEndpointCounters
)

// endpointCounters names each id.
var endpointCounters = metrics.Table{Set: "endpoint", Names: []string{
	EpAuthEpochExpired:     "auth_epoch_expired",
	EpAuthFail:             "auth_fail",
	EpAuthMissing:          "auth_missing",
	EpAuthNoKey:            "auth_no_key",
	EpAuthOK:               "auth_ok",
	EpAuthOKGrace:          "auth_ok_grace",
	EpAuthUnsupported:      "auth_unsupported",
	EpDelivered:            "delivered",
	EpDropNoQP:             "drop_no_qp",
	EpDropUnhandledOpcode:  "drop_unhandled_opcode",
	EpGSIIssueFailed:       "gsi_issue_failed",
	EpGSIMalformed:         "gsi_malformed",
	EpGSINoTarget:          "gsi_no_target",
	EpGSIReceived:          "gsi_received",
	EpGSISent:              "gsi_sent",
	EpGSIUnexpected:        "gsi_unexpected",
	EpPacketsSigned:        "packets_signed",
	EpQKeyEstablished:      "qkey_established",
	EpQKeyRequests:         "qkey_requests",
	EpQKeyViolations:       "qkey_violations",
	EpRCAccepted:           "rc_accepted",
	EpRCAckSealFailed:      "rc_ack_seal_failed",
	EpRCAcksReceived:       "rc_acks_received",
	EpRCAcksSent:           "rc_acks_sent",
	EpRCBECNReceived:       "rc_becn_received",
	EpRCBECNSent:           "rc_becn_sent",
	EpRCBroken:             "rc_broken",
	EpRCConnects:           "rc_connects",
	EpRCDuplicates:         "rc_duplicates",
	EpRCEstablished:        "rc_established",
	EpRCMigrations:         "rc_migrations",
	EpRCNAKsReceived:       "rc_naks_received",
	EpRCNAKsSent:           "rc_naks_sent",
	EpRCOutOfOrder:         "rc_out_of_order",
	EpRCRearms:             "rc_rearms",
	EpRCResealFailed:       "rc_reseal_failed",
	EpRCRetransBytes:       "rc_retrans_bytes",
	EpRCRetransmissions:    "rc_retransmissions",
	EpRCSent:               "rc_sent",
	EpRDMABoundsViolations: "rdma_bounds_violations",
	EpRDMAReadCompleted:    "rdma_read_completed",
	EpRDMAReadSealFailed:   "rdma_read_seal_failed",
	EpRDMAReadSent:         "rdma_read_sent",
	EpRDMAReadUnexpected:   "rdma_read_unexpected",
	EpRDMAReads:            "rdma_reads",
	EpRDMASent:             "rdma_sent",
	EpRDMAWrites:           "rdma_writes",
	EpReplayDrops:          "replay_drops",
	EpRKeyViolations:       "rkey_violations",
	EpUCConnects:           "uc_connects",
	EpUCSent:               "uc_sent",
	EpUDSent:               "ud_sent",
}}
