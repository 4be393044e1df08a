package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ibasec"
	"ibasec/internal/fabric"
)

// Value is one per-layer number from the traced run. Exact marks counts
// and simulated-time values: they depend only on the seed and must repeat
// bit for bit between runs and between commits that only change speed.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// Wire overhead of the rigs' and workloads' UD packets: LRH 8 + BTH 12 +
// DETH 8 + ICRC 4 + VCRC 2.
const udOverhead = 34

// linearCost fits cost = base*pkts + slope*bytes through a rig pair
// measured at 64 B and 1024 B payloads.
func linearCost(at64, at1k float64) (base, slope float64) {
	slope = (at1k - at64) / (1024 - 64)
	return at64 - slope*(64+udOverhead), slope
}

// runTraced runs one more repetition of w with the benchmark's observer
// installed and derives every traced per-layer metric. untracedSimS is the
// median Simulate time of the untraced repetitions: the time est_share
// explains and the base of core.trace_overhead; wantDigest is their result
// digest, which observing must not change.
func runTraced(w workload, seed int64, scale int, rigs map[string]Sample, untracedSimS float64, wantDigest, outDir string) (map[string]Value, error) {
	tr := newTracer()
	cfg := w.config(seed, scale)
	params := *fabric.DefaultParams()
	params.Observer = tr
	cfg.Params = &params

	start := time.Now()
	r := runRep(w, cfg, func(cl *ibasec.Cluster) { tr.pending = cl.Sim.Pending })
	if r.Err != nil {
		return nil, fmt.Errorf("traced run: %w", r.Err)
	}
	if r.Digest != wantDigest {
		return nil, fmt.Errorf("traced run: digest %s differs from the untraced %s: the observer changed the simulation", r.Digest, wantDigest)
	}
	res, cl := r.Res, r.Cl
	roots := []Span{
		{Name: "core.build", ID: spanBuild, Clock: "host_s", Start: 0, End: r.BuildS},
		{Name: "core.simulate", ID: spanSimulate, Clock: "host_s", Start: r.BuildS, End: time.Since(start).Seconds()},
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), roots, tr.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	_, drHops := countHops(cl.Mesh)
	hops := float64(r.Hops)
	m := make(map[string]Value)
	exact := func(name, unit string, v float64) { m[name] = Value{Value: v, Unit: unit, Exact: true} }
	host := func(name, unit string, v float64) { m[name] = Value{Value: v, Unit: unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	pending := ratio(float64(tr.pendingSum), float64(tr.nextPkt))
	exact("sim.pending_mean", "count", pending)
	exact("core.events", "count", float64(r.Events))
	exact("core.hops", "count", hops)
	exact("core.events_per_hop", "ratio", ratio(float64(r.Events), hops))
	host("core.simulate_s", "s", untracedSimS)
	host("core.trace_overhead", "ratio", r.SimS/untracedSimS-1)

	exact("fabric.enqueued", "count", float64(tr.kinds[fabric.ObsEnqueue]))
	exact("fabric.forwarded", "count", float64(tr.kinds[fabric.ObsForward]))
	exact("fabric.delivered", "count", float64(tr.kinds[fabric.ObsDeliver]))
	exact("fabric.filtered", "count", float64(tr.kinds[fabric.ObsFiltered]))
	exact("fabric.dropped", "count", float64(tr.dropped()))
	exact("fabric.fecn_marked", "count", float64(tr.kinds[fabric.ObsFECNMark]))
	exact("fabric.hca_queue_us_mean", "us", mean(tr.queueUS))
	exact("fabric.hca_queue_us_p99", "us", quantile(tr.queueUS, 0.99))
	exact("fabric.transit_us_mean", "us", mean(tr.transitUS))
	exact("fabric.transit_us_p99", "us", quantile(tr.transitUS, 0.99))
	exact("fabric.hop_us_mean", "us", ratio(tr.hopSumUS, float64(tr.hopN)))
	exact("fabric.link_util_max", "ratio", res.MaxLinkUtil)
	exact("fabric.credit_stall_us", "us", float64(res.CreditStallNs)/1e3)

	exact("enforce.lookups", "count", float64(res.FilterLookups))
	exact("enforce.dropped", "count", float64(res.FilterDropped))
	exact("enforce.drop_ratio", "ratio", ratio(float64(res.FilterDropped), float64(res.FilterLookups)))

	vl15 := float64(drHops + tr.mgmtFwd)
	exact("sm.traps", "count", float64(res.TrapsSent))
	exact("sm.vl15_hops", "count", vl15)
	exact("sm.vl15_share", "ratio", ratio(vl15, hops+float64(drHops)))

	exact("transport.signed", "count", float64(res.PacketsSigned))
	exact("transport.auth_ok", "count", float64(res.AuthOK))
	exact("transport.auth_fail", "count", float64(res.AuthFail))

	for name, share := range estShares(tr, res, cl, r.Events, r.Hops, drHops, pending, rigs, untracedSimS) {
		host(name, "ratio", share)
	}
	return m, nil
}

// estShares predicts each layer's share of the untraced Simulate time as
// (how often the traced run used the layer) x (what the layer's rig says
// one use costs). With one goroutine and no contention the shares should
// add up to about 1; a large gap means a rig misses work its layer does.
func estShares(tr *tracer, res *ibasec.Results, cl *ibasec.Cluster, events, hops, drHops uint64, pending float64, rigs map[string]Sample, simS float64) map[string]float64 {
	rig := func(name string) float64 { return rigs[name].Median }

	// sim: a binary-heap operation costs about a + b*log2(depth); the two
	// sim rigs fix the line at 32 and 1024 pending events, and the traced
	// run's mean queue depth picks the point on it.
	shallowNs, deepNs := rig("sim.event_32_ns"), rig("sim.event_ns")
	depth := math.Log2(min(max(pending, 32), 1024))
	eventNs := shallowNs + (deepNs-shallowNs)*(depth-5)/(10-5)

	// icrc: every data packet is sealed once at its source — CRC-32 plus
	// CRC-16 when the ICRC field holds a CRC, CRC-16 alone when it holds
	// an authentication tag — and every management datagram is sealed at
	// its origin and again at each directed-route hop.
	sealBase, sealSlope := linearCost(rig("icrc.seal_64b_ns"), rig("icrc.seal_1k_ns"))
	seal := func(pkts, bytes uint64) float64 { return float64(pkts)*sealBase + float64(bytes)*sealSlope }
	icrcNs := seal(tr.plainPkts, tr.plainBytes) + float64(tr.authBytes)*rig("icrc.crc16_ns_per_byte")
	if tr.mgmtPkts > 0 {
		madBytes := tr.mgmtBytes / tr.mgmtPkts
		madSeals := tr.mgmtPkts + drHops
		icrcNs += seal(madSeals, madSeals*madBytes)
	}

	// mac: one UMAC-32 tag per signed packet and one per verification.
	macBase, macSlope := linearCost(rig("mac.umac32_tag_64b_ns"), rig("mac.umac32_tag_1k_ns"))
	var macNs float64
	if tr.authPkts > 0 {
		tags := float64(res.PacketsSigned + res.AuthOK + res.AuthFail)
		macNs = tags * (macBase + macSlope*float64(tr.authBytes/tr.authPkts))
	}

	// enforce: the switch consults the filter for every data packet that
	// reaches it; only lookups pay the table search.
	var enforceNs float64
	if cl.Filter != nil {
		inspected := tr.kinds[fabric.ObsForward] - tr.mgmtFwd + tr.kinds[fabric.ObsFiltered]
		enforceNs = float64(inspected-min(inspected, res.FilterLookups))*rig("enforce.inspect_sif_idle_ns") +
			float64(res.FilterLookups)*rig("enforce.inspect_sif_drop_ns")
	}

	// fabric: the hop rig's cost per packet-hop less the scheduler events
	// it fired (at the rig's shallow queue), which est_share.sim covers.
	hopSelf := max(0, rig("fabric.hop_ns")-rig("fabric.hop_events")*shallowNs)
	fabricNs := float64(hops+drHops+tr.kinds[fabric.ObsFiltered]) * hopSelf

	// other: traffic generation and per-delivery measurement — the
	// remaining per-packet work on the data path.
	generated := float64(tr.plainPkts + tr.authPkts)
	otherNs := generated*max(0, rig("workload.gen_ns")-shallowNs) +
		float64(res.DeliveredLegit)*(2*rig("metrics.welford_add_ns")+rig("metrics.recorder_add_ns"))

	total := simS * 1e9
	return map[string]float64{
		"est_share.sim":     float64(events) * eventNs / total,
		"est_share.icrc":    icrcNs / total,
		"est_share.mac":     macNs / total,
		"est_share.enforce": enforceNs / total,
		"est_share.fabric":  fabricNs / total,
		"est_share.other":   otherNs / total,
	}
}
