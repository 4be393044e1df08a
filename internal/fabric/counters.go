package fabric

import "ibasec/internal/metrics"

// SwitchCounter identifies one of a switch's counters (Switch.Counters):
// the forwarding path's, and those of the switch's subnet management
// agent, which the subnet manager's agent writes.
type SwitchCounter uint8

// The ids of a switch's counters, in name order.
const (
	SwDeadPort SwitchCounter = iota
	SwDRForwarded
	SwFiltered
	SwForwarded
	SwHealthTraps
	SwMADDropped
	SwSMPAuditState
	SwSMPDupRequests
	SwSMPMalformed
	SwSMPMisrouted
	SwSMPMKeyViolations
	SwSMPRoutesSet
	SwUnroutable
	SwVCRCDrops
	numSwitchCounters
)

// switchCounters names each id.
var switchCounters = metrics.Table{Set: "switch", Names: []string{
	SwDeadPort:          "dead_port",
	SwDRForwarded:       "dr_forwarded",
	SwFiltered:          "filtered",
	SwForwarded:         "forwarded",
	SwHealthTraps:       "health_traps",
	SwMADDropped:        "mad_dropped",
	SwSMPAuditState:     "smp_audit_state",
	SwSMPDupRequests:    "smp_dup_requests",
	SwSMPMalformed:      "smp_malformed",
	SwSMPMisrouted:      "smp_misrouted",
	SwSMPMKeyViolations: "smp_mkey_violations",
	SwSMPRoutesSet:      "smp_routes_set",
	SwUnroutable:        "unroutable",
	SwVCRCDrops:         "vcrc_drops",
}}

// HCACounter identifies one of an HCA's counters (HCA.Counters): the
// port's, and those of the HCA's subnet management agent, which the
// subnet manager's agent writes.
type HCACounter uint8

// The ids of an HCA's counters, in name order.
const (
	HCAAltLIDArrivals HCACounter = iota
	HCABECNNotified
	HCACCTThrottled
	HCACNPReceived
	HCACNPSent
	HCADelivered
	HCAFECNReceived
	HCAICRCDrops
	HCASent
	HCASMPDupRequests
	HCASMPDupResponses
	HCASMPLateResponses
	HCASMPLIDSet
	HCASMPMalformed
	HCASMPMisrouted
	HCAVCRCDrops
	numHCACounters
)

// hcaCounters names each id.
var hcaCounters = metrics.Table{Set: "hca", Names: []string{
	HCAAltLIDArrivals:   "alt_lid_arrivals",
	HCABECNNotified:     "becn_notified",
	HCACCTThrottled:     "cct_throttled",
	HCACNPReceived:      "cnp_received",
	HCACNPSent:          "cnp_sent",
	HCADelivered:        "delivered",
	HCAFECNReceived:     "fecn_received",
	HCAICRCDrops:        "icrc_drops",
	HCASent:             "sent",
	HCASMPDupRequests:   "smp_dup_requests",
	HCASMPDupResponses:  "smp_dup_responses",
	HCASMPLateResponses: "smp_late_responses",
	HCASMPLIDSet:        "smp_lid_set",
	HCASMPMalformed:     "smp_malformed",
	HCASMPMisrouted:     "smp_misrouted",
	HCAVCRCDrops:        "vcrc_drops",
}}
