package core

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
)

// CSVTable is one experiment's rows rendered to strings, ready for an
// encoding/csv writer. Rendering lives here — shared by cmd/ibsim and
// the golden-determinism tests — so both necessarily produce the same
// bytes for the same results: the golden files guard the simulator, not
// two separately-maintained formatting paths.
type CSVTable struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Ftoa renders a float the way every experiment CSV does (fixed four
// decimal places).
func Ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Itoa renders an unsigned counter.
func Itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// Gtoa renders a float in compact %g form (used for exact parameter
// echoes like bit-error rates, where fixed precision would lose digits).
func Gtoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Encode writes the table in RFC-4180 form.
func (t CSVTable) Encode(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Bytes returns the encoded table.
func (t CSVTable) Bytes() []byte {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail; a csv quoting bug would
	}
	return buf.Bytes()
}

// Fig1CSV renders a Figure 1 sweep. name distinguishes the realtime and
// best-effort variants ("fig1_realtime", "fig1_best-effort").
func Fig1CSV(name string, rows []Fig1Row) CSVTable {
	t := CSVTable{
		Name:   name,
		Header: []string{"attackers", "queuing_us", "queuing_sd", "network_us", "network_sd", "delivered", "attack_pkts"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Itoa(uint64(r.Attackers)), Ftoa(r.QueuingUS), Ftoa(r.QueuingSD),
			Ftoa(r.NetworkUS), Ftoa(r.NetworkSD), Itoa(r.Delivered), Itoa(r.AttackHits),
		})
	}
	return t
}

// Fig5CSV renders the enforcement-mode delay comparison (Figure 5).
func Fig5CSV(rows []Fig5Row) CSVTable {
	t := CSVTable{
		Name:   "fig5",
		Header: []string{"load", "mode", "queuing_us", "network_us", "total_us", "queuing_sd", "filtered", "leaked"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Ftoa(r.Load), r.Mode.String(), Ftoa(r.QueuingUS), Ftoa(r.NetworkUS),
			Ftoa(r.TotalUS), Ftoa(r.QueuingSD), Itoa(r.Dropped), Itoa(r.AttackHits),
		})
	}
	return t
}

// Fig6CSV renders the authentication-overhead sweep (Figure 6).
func Fig6CSV(rows []Fig6Row) CSVTable {
	t := CSVTable{
		Name:   "fig6",
		Header: []string{"load", "keys", "queuing_us", "queuing_sd", "network_us", "network_sd", "key_exchanges", "signed"},
	}
	for _, r := range rows {
		label := "No Key"
		if r.WithKey {
			label = "WithKey"
		}
		t.Rows = append(t.Rows, []string{
			Ftoa(r.Load), label, Ftoa(r.QueuingUS), Ftoa(r.QueuingSD),
			Ftoa(r.NetworkUS), Ftoa(r.NetworkSD), Itoa(r.KeyExchanges), Itoa(r.PacketsSigned),
		})
	}
	return t
}

// FaultsCSV renders the chaos sweep (link kills + BER bursts).
func FaultsCSV(rows []FaultRow) CSVTable {
	t := CSVTable{
		Name: "faults",
		Header: []string{
			"mode", "ber", "kills", "sent", "delivered", "delivered_frac",
			"blackholed", "hoq_dropped", "crc_rejected", "auth_rejected",
			"rc_sent", "rc_delivered", "rc_broken", "rc_p99_us",
			"detect_us", "reroute_us", "resweeps", "reroutes",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode.String(), Gtoa(r.BER), Itoa(uint64(r.LinkKills)),
			Itoa(r.Sent), Itoa(r.Delivered), Ftoa(r.DeliveredFrac),
			Itoa(r.Blackholed), Itoa(r.HOQDropped), Itoa(r.CRCRejected), Itoa(r.AuthRejected),
			Itoa(r.RCSent), Itoa(r.RCDelivered), Itoa(r.RCBroken), Ftoa(r.RCLatencyP99US),
			Ftoa(r.DetectUS), Ftoa(r.RerouteUS), Itoa(r.Resweeps), Itoa(r.Reroutes),
		})
	}
	return t
}

// APMCSV renders the RC recovery / path-migration sweep.
func APMCSV(rows []APMRow) CSVTable {
	t := CSVTable{
		Name: "apm",
		Header: []string{
			"arm", "ber", "kills",
			"rc_sent", "rc_delivered", "delivered_frac", "rc_broken",
			"naks", "migrations", "rearms",
			"retrans", "retrans_bytes", "storm_max", "alt_dropped",
			"p99_us", "max_us",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Arm.String(), Gtoa(r.BER), Itoa(uint64(r.LinkKills)),
			Itoa(r.RCSent), Itoa(r.RCDelivered), Ftoa(r.DeliveredFrac), Itoa(r.RCBroken),
			Itoa(r.NAKs), Itoa(r.Migrations), Itoa(r.Rearms),
			Itoa(r.Retrans), Itoa(r.RetransBytes), Itoa(r.StormMax), Itoa(r.AltDropped),
			Ftoa(r.RCLatencyP99US), Ftoa(r.RCLatencyMaxUS),
		})
	}
	return t
}

// DriftCSV renders the policy-drift sweep.
func DriftCSV(rows []DriftRow) CSVTable {
	t := CSVTable{
		Name: "drift",
		Header: []string{
			"mode", "audit_period_us", "repair",
			"drift_events", "drift_repaired", "detect_us", "repair_us",
			"blast", "attack_delivered", "filter_dropped", "hca_violations",
			"audit_mads", "repair_mads", "sent", "delivered",
		},
	}
	for _, r := range rows {
		repair := "off"
		if r.Repair {
			repair = "on"
		}
		t.Rows = append(t.Rows, []string{
			r.Mode.String(), Ftoa(r.AuditPeriodUS), repair,
			Itoa(r.DriftEvents), Itoa(r.DriftRepaired), Ftoa(r.DetectUS), Ftoa(r.RepairUS),
			Itoa(r.Blast), Itoa(r.AttackDelivered), Itoa(r.FilterDropped), Itoa(r.HCAViolations),
			Itoa(r.AuditMADs), Itoa(r.RepairMADs), Itoa(r.Sent), Itoa(r.Delivered),
		})
	}
	return t
}

// CongestionCSV renders the congestion-control sweep.
func CongestionCSV(rows []CongestionRow) CSVTable {
	t := CSVTable{
		Name: "congestion",
		Header: []string{
			"mode", "rate", "cc",
			"be_p99_us", "be_mean_us", "delivered", "violations",
			"fecn_marked", "cnps", "throttled", "attacker_cct",
			"tree_span", "recover_us", "stall_us",
		},
	}
	for _, r := range rows {
		cc := "off"
		if r.CC {
			cc = "on"
		}
		t.Rows = append(t.Rows, []string{
			r.Mode.String(), Gtoa(r.Rate), cc,
			Ftoa(r.BEp99US), Ftoa(r.BEMeanUS), Itoa(r.Delivered), Itoa(r.Violations),
			Itoa(r.FECNMarked), Itoa(r.CNPs), Itoa(r.Throttled), Itoa(uint64(r.AttackerCCT)),
			Itoa(uint64(r.TreeSpan)), Ftoa(r.RecoverUS), Ftoa(r.StallUS),
		})
	}
	return t
}

// HealthCSV renders the flaky-link health-plane sweep.
func HealthCSV(rows []HealthRow) CSVTable {
	t := CSVTable{
		Name: "health",
		Header: []string{
			"mode", "attack", "arm", "ber",
			"sent", "delivered", "delivered_frac",
			"crc_rejected", "lost_before_q", "lost_after_q",
			"detect_us", "quarantines", "readmits", "refused",
			"false_quarantines", "flaps",
			"sweep_mads", "trap_mads", "reroute_mads",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode.String(), r.Attack, r.Arm, Gtoa(r.BER),
			Itoa(r.Sent), Itoa(r.Delivered), Ftoa(r.DeliveredFrac),
			Itoa(r.CRCRejected), Itoa(r.LostBeforeQ), Itoa(r.LostAfterQ),
			Ftoa(r.DetectUS), Itoa(r.Quarantines), Itoa(r.Readmits), Itoa(r.Refused),
			Itoa(r.FalseQuarantines), Itoa(uint64(r.Flaps)),
			Itoa(r.SweepMADs), Itoa(r.TrapMADs), Itoa(r.RerouteMADs),
		})
	}
	return t
}

// SplitBrainCSV renders the split-brain / merge-reconciliation sweep.
func SplitBrainCSV(rows []SplitBrainRow) CSVTable {
	t := CSVTable{
		Name: "splitbrain",
		Header: []string{
			"partition_us", "heartbeat_us", "rekey_us",
			"containments", "contained_takeovers", "abdications", "merges", "census_rounds",
			"dual_master_us", "reconverge_us", "reconcile_mads",
			"rollovers", "island_rollovers", "dup_requests",
			"auth_ok", "auth_fail", "grace_misses", "auth_ok_grace",
			"sent", "delivered",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Ftoa(r.PartitionUS), Ftoa(r.HeartbeatUS), Ftoa(r.RekeyUS),
			Itoa(r.Containments), Itoa(r.ContainedTakeovers), Itoa(r.Abdications), Itoa(r.Merges), Itoa(r.CensusRounds),
			Ftoa(r.DualMasterUS), Ftoa(r.ReconvergeUS), Itoa(r.ReconcileMADs),
			Itoa(r.Rollovers), Itoa(r.IslandRollovers), Itoa(r.DupRequests),
			Itoa(r.AuthOK), Itoa(r.AuthFail), Itoa(r.GraceMisses), Itoa(r.AuthOKGrace),
			Itoa(r.Sent), Itoa(r.Delivered),
		})
	}
	return t
}

// FailoverCSV renders the SM-failover / key-rotation sweep.
func FailoverCSV(rows []FailoverRow) CSVTable {
	t := CSVTable{
		Name: "failover",
		Header: []string{
			"standbys", "heartbeat_us", "rekey_us",
			"takeovers", "election_us", "takeover_us",
			"mads_recover", "mads_lost_dead_sm",
			"rollovers", "forced_rotations", "grace_misses", "auth_ok_grace",
			"auth_ok", "auth_fail", "traps_sent",
			"sif_regs_pre", "sif_regs_post", "filter_dropped",
			"sent", "delivered",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Itoa(uint64(r.Standbys)), Ftoa(r.HeartbeatUS), Ftoa(r.RekeyUS),
			Itoa(r.Takeovers), Ftoa(r.ElectionUS), Ftoa(r.TakeoverUS),
			Itoa(r.MADsRecover), Itoa(r.MADsLostDeadSM),
			Itoa(r.Rollovers), Itoa(r.ForcedRotations), Itoa(r.GraceMisses), Itoa(r.AuthOKGrace),
			Itoa(r.AuthOK), Itoa(r.AuthFail), Itoa(r.TrapsSent),
			Itoa(r.SIFRegsPre), Itoa(r.SIFRegsPost), Itoa(r.FilterDropped),
			Itoa(r.Sent), Itoa(r.Delivered),
		})
	}
	return t
}

// Table2CSV renders the enforcement cost model (Table 2).
func Table2CSV(rows []Table2Row) CSVTable {
	t := CSVTable{
		Name:   "table2",
		Header: []string{"mode", "mem_per_switch", "mem_all", "lookups_linear", "lookups_const"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mode.String(), Ftoa(r.MemPerSwitch), Ftoa(r.MemAll), Ftoa(r.LookupLinear), Ftoa(r.LookupConst),
		})
	}
	return t
}

// Table4CSV renders the host-timed MAC throughput measurement (Table 4).
// Forgery probabilities span 2^-30..2^-160, so they are printed to six
// significant digits rather than four decimal places.
func Table4CSV(rows []Table4Row) CSVTable {
	t := CSVTable{
		Name:   "table4",
		Header: []string{"algorithm", "cycles_per_byte", "gbits_per_sec", "forgery_prob"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, Ftoa(r.CyclesByte), Ftoa(r.GbitsPerSec), strconv.FormatFloat(r.ForgeryProb, 'g', 6, 64),
		})
	}
	return t
}

// SweepDutyCSV renders the SIF duty-cycle ablation; SweepDuty reuses
// Fig5Row with Load holding the swept duty.
func SweepDutyCSV(rows []Fig5Row) CSVTable {
	t := CSVTable{
		Name:   "sweep_duty",
		Header: []string{"duty", "queuing_us", "network_us", "filtered", "leaked"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Ftoa(r.Load), Ftoa(r.QueuingUS), Ftoa(r.NetworkUS), Itoa(r.Dropped), Itoa(r.AttackHits),
		})
	}
	return t
}

// AuthRateCSV renders the MAC-engine-speed ablation.
func AuthRateCSV(rows []AuthRateRow) CSVTable {
	t := CSVTable{
		Name:   "authrate",
		Header: []string{"algorithm", "rate_gbps", "queuing_us", "network_us", "delivered"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, Ftoa(r.RateGbps), Ftoa(r.QueuingUS), Ftoa(r.NetworkUS), Itoa(r.Delivered),
		})
	}
	return t
}

// SMFloodCSV renders the management-DoS sweep.
func SMFloodCSV(rows []SMFloodRow) CSVTable {
	t := CSVTable{
		Name:   "smdos",
		Header: []string{"flood_rate", "reg_latency_us", "reg_latency_max_us", "mads_processed", "registrations"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			Ftoa(r.FloodRate), Ftoa(r.RegLatencyUS), Ftoa(r.RegLatencyMax), Itoa(r.TrapsReceived), Itoa(r.Registrations),
		})
	}
	return t
}

// ScaleCSV renders the mesh-size ablation.
func ScaleCSV(rows []ScaleRow) CSVTable {
	t := CSVTable{
		Name:   "scale",
		Header: []string{"mesh", "nodes", "attackers", "base_queuing_us", "attack_queuing_us", "base_network_us", "attack_network_us"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			strconv.Itoa(r.W) + "x" + strconv.Itoa(r.H), Itoa(uint64(r.Nodes)), Itoa(uint64(r.Attackers)),
			Ftoa(r.BaseQueuingUS), Ftoa(r.AttackQueuingUS), Ftoa(r.BaseNetworkUS), Ftoa(r.AttackNetworkUS),
		})
	}
	return t
}
