package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// Every sweep in this package has one entry point, X(ctx, pool, …), and
// is two things: its points, in row order, and one point function that
// turns a point into a row. ctx cancels between points, and a nil pool
// runs the points serially on the calling goroutine with the same bytes
// as any worker count. Every point runs at the sweep's base seed,
// Config.Seed, so a figure is byte-identical at a fixed -seed.

// sweep runs row on every point, one runner job per point, and returns
// the rows in the points' order. A job's key is %+v of its point, so a
// point struct's field names label the point's failure. An empty point
// list is an error naming the experiment, not an empty table.
func sweep[P, R any](ctx context.Context, pool *runner.Pool, name string, points []P, row func(P) (R, error)) ([]R, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: %s: no points to run", name)
	}
	jobs := make([]runner.Job[R], len(points))
	for i, p := range points {
		jobs[i] = runner.Job[R]{Experiment: name, Index: i, Key: fmt.Sprintf("%+v", p),
			Run: func(context.Context) (R, error) { return row(p) }}
	}
	return runner.Run(ctx, pool, jobs)
}

// Fig1Row is one point of Figure 1: mean legitimate-traffic delays (µs)
// under a DoS attack by Attackers compromised nodes.
type Fig1Row struct {
	Attackers  int     `csv:"attackers"`
	QueuingUS  float64 `csv:"queuing_us"`
	QueuingSD  float64 `csv:"queuing_sd"`
	NetworkUS  float64 `csv:"network_us"`
	NetworkSD  float64 `csv:"network_sd"`
	Delivered  uint64  `csv:"delivered"`
	AttackHits uint64  `csv:"attack_pkts"`
}

// Fig1 regenerates Figure 1(a) (realtime) or 1(b) (best-effort): average
// queuing time and network latency as the number of attackers grows from
// 0 to maxAttackers, which must leave at least one node that does not
// attack. Attackers flood at full line rate with random P_Keys and
// destinations; no switch filtering is in place.
func Fig1(ctx context.Context, pool *runner.Pool, class fabric.Class, maxAttackers int, base Config) ([]Fig1Row, error) {
	name := "fig1_best-effort"
	if class == fabric.ClassRealtime {
		name = "fig1_realtime"
	}
	if n := base.MeshW * base.MeshH; maxAttackers < 0 || maxAttackers >= n {
		return nil, fmt.Errorf("core: %s: %d attackers for %d nodes", name, maxAttackers, n)
	}
	var points []fig1Point
	for k := 0; k <= maxAttackers; k++ {
		points = append(points, fig1Point{Attackers: k})
	}
	return sweep(ctx, pool, name, points, func(p fig1Point) (Fig1Row, error) {
		cfg := base
		cfg.Enforcement = enforce.NoFiltering
		cfg.Attackers = p.Attackers
		cfg.AttackDuty = 1.0
		cfg.AttackClass = class
		switch class {
		case fabric.ClassRealtime:
			cfg.RealtimeLoad, cfg.BestEffortLoad = base.RealtimeLoad, 0
		default:
			cfg.RealtimeLoad, cfg.BestEffortLoad = 0, base.BestEffortLoad
		}
		res, err := Run(cfg)
		if err != nil {
			return Fig1Row{}, err
		}
		split := &res.BestEffort
		if class == fabric.ClassRealtime {
			split = &res.Realtime
		}
		return Fig1Row{
			Attackers:  p.Attackers,
			QueuingUS:  split.Queuing.Mean(),
			QueuingSD:  split.Queuing.StdDev(),
			NetworkUS:  split.Network.Mean(),
			NetworkSD:  split.Network.StdDev(),
			Delivered:  res.DeliveredLegit,
			AttackHits: res.HCAViolations,
		}, nil
	})
}

// fig1Point is one point of Figure 1.
type fig1Point struct{ Attackers int }

// Fig5Row is one bar of Figure 5: the delay split for one (load, mode)
// pair under a duty-cycled four-attacker DoS.
type Fig5Row struct {
	Load       float64      `csv:"load"`
	Mode       enforce.Mode `csv:"mode"`
	QueuingUS  float64      `csv:"queuing_us"`
	NetworkUS  float64      `csv:"network_us"`
	TotalUS    float64      `csv:"total_us"`
	QueuingSD  float64      `csv:"queuing_sd"`
	Dropped    uint64       `csv:"filtered"`
	AttackHits uint64       `csv:"leaked"`
}

// Fig5 regenerates Figure 5: queuing and network delay of non-attacking
// best-effort traffic at input loads for each enforcement design, with
// four attackers active attackDuty of the time (the paper uses 1%).
func Fig5(ctx context.Context, pool *runner.Pool, loads []float64, attackDuty float64, base Config) ([]Fig5Row, error) {
	var points []fig5Point
	for _, load := range loads {
		for _, mode := range []enforce.Mode{enforce.NoFiltering, enforce.DPT, enforce.IF, enforce.SIF} {
			points = append(points, fig5Point{Load: load, Mode: mode})
		}
	}
	return sweep(ctx, pool, "fig5", points, func(p fig5Point) (Fig5Row, error) {
		cfg := base
		cfg.Enforcement = p.Mode
		cfg.Attackers = 4
		cfg.AttackDuty = attackDuty
		cfg.RealtimeLoad = 0
		cfg.BestEffortLoad = p.Load
		res, err := Run(cfg)
		if err != nil {
			return Fig5Row{}, err
		}
		return Fig5Row{
			Load:       p.Load,
			Mode:       p.Mode,
			QueuingUS:  res.BestEffort.Queuing.Mean(),
			NetworkUS:  res.BestEffort.Network.Mean(),
			TotalUS:    res.BestEffort.Queuing.Mean() + res.BestEffort.Network.Mean(),
			QueuingSD:  res.BestEffort.Queuing.StdDev(),
			Dropped:    res.FilterDropped,
			AttackHits: res.HCAViolations,
		}, nil
	})
}

// fig5Point is one bar of Figure 5.
type fig5Point struct {
	Load float64
	Mode enforce.Mode
}

// Fig6Row is one bar pair of Figure 6: delays without and with
// authentication + key management at one input load.
type Fig6Row struct {
	Load          float64 `csv:"load"`
	Keys          string  `csv:"keys"` // "No Key" or "WithKey"
	WithKey       bool    // Keys == "WithKey"; not a column
	QueuingUS     float64 `csv:"queuing_us"`
	QueuingSD     float64 `csv:"queuing_sd"`
	NetworkUS     float64 `csv:"network_us"`
	NetworkSD     float64 `csv:"network_sd"`
	KeyExchanges  uint64  `csv:"key_exchanges"`
	PacketsSigned uint64  `csv:"signed"`
}

// Fig6 regenerates Figure 6: message-authentication overhead with key
// initialization. "No Key" runs plain traffic; "With Key" runs QP-level
// key management (one key-exchange round trip per QP pair at start) plus
// per-message MAC generation (one clock cycle).
func Fig6(ctx context.Context, pool *runner.Pool, loads []float64, level transport.KeyLevel, base Config) ([]Fig6Row, error) {
	var points []fig6Point
	for _, load := range loads {
		for _, withKey := range []bool{false, true} {
			points = append(points, fig6Point{Load: load, WithKey: withKey})
		}
	}
	return sweep(ctx, pool, "fig6", points, func(p fig6Point) (Fig6Row, error) {
		cfg := base
		cfg.Enforcement = enforce.NoFiltering
		cfg.Attackers = 0
		cfg.RealtimeLoad = 0
		cfg.BestEffortLoad = p.Load
		cfg.Auth = AuthConfig{Enabled: p.WithKey, FuncID: mac.IDUMAC32, Level: level}
		res, err := Run(cfg)
		if err != nil {
			return Fig6Row{}, err
		}
		keys := "No Key"
		if p.WithKey {
			keys = "WithKey"
		}
		return Fig6Row{
			Load:          p.Load,
			Keys:          keys,
			WithKey:       p.WithKey,
			QueuingUS:     res.BestEffort.Queuing.Mean(),
			QueuingSD:     res.BestEffort.Queuing.StdDev(),
			NetworkUS:     res.BestEffort.Network.Mean(),
			NetworkSD:     res.BestEffort.Network.StdDev(),
			KeyExchanges:  res.KeyExchanges,
			PacketsSigned: res.PacketsSigned,
		}, nil
	})
}

// fig6Point is one bar of Figure 6.
type fig6Point struct {
	Load    float64
	WithKey bool
}

// Table4Row is one row of Table 4: per-algorithm authentication cost and
// forgery probability.
type Table4Row struct {
	Name        string  `csv:"algorithm"`
	CyclesByte  float64 `csv:"cycles_per_byte"`
	GbitsPerSec float64 `csv:"gbits_per_sec"`
	ForgeryProb float64 `csv:"forgery_prob,%.6g"` // 2^-30..2^-160
}

// Table4 regenerates Table 4 by timing real implementations on msgBytes
// messages (the paper uses 1500-bit ≈ 188-byte messages) for roughly
// budget wall time per algorithm. cpuGHz converts measured throughput to
// cycles/byte on the measuring machine.
func Table4(msgBytes int, budget time.Duration, cpuGHz float64) []Table4Row {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	msg := make([]byte, msgBytes)
	algs := []mac.Authenticator{
		mac.NewCRC32(),
		mac.NewHMACSHA1(),
		mac.NewHMACMD5(),
		mac.NewUMAC32(),
	}
	rows := make([]Table4Row, 0, len(algs))
	for _, a := range algs {
		// Warm up (key schedule, caches).
		if _, err := a.Tag(key, msg, 0); err != nil {
			panic(err)
		}
		var n uint64
		start := time.Now()
		for time.Since(start) < budget {
			for i := 0; i < 64; i++ {
				if _, err := a.Tag(key, msg, n); err != nil {
					panic(err)
				}
				n++
			}
		}
		elapsed := time.Since(start).Seconds()
		bytesPerSec := float64(n) * float64(msgBytes) / elapsed
		rows = append(rows, Table4Row{
			Name:        a.Name(),
			CyclesByte:  cpuGHz * 1e9 / bytesPerSec,
			GbitsPerSec: bytesPerSec * 8 / 1e9,
			ForgeryProb: a.ForgeryProb(),
		})
	}
	return rows
}

// Table2Rows evaluates the paper's Table 2 formulas for a model of this
// testbed (n=16 nodes, s=16 switches) with the given per-node partition
// count and attack statistics.
func Table2Rows(p int, prAttack, avgInvalid float64) []Table2Row {
	c := enforce.CostModel{N: 16, S: 16, P: p, PrAttack: prAttack, AvgInvalid: avgInvalid}
	modes := []enforce.Mode{enforce.DPT, enforce.IF, enforce.SIF}
	rows := make([]Table2Row, 0, len(modes))
	for _, m := range modes {
		rows = append(rows, Table2Row{
			Mode:         m,
			MemPerSwitch: c.MemoryPerSwitch(m),
			MemAll:       c.MemoryAllSwitches(m),
			LookupLinear: c.LookupsPerPacket(m, enforce.LinearLookup),
			LookupConst:  c.LookupsPerPacket(m, enforce.ConstantLookup),
		})
	}
	return rows
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Mode         enforce.Mode `csv:"mode"`
	MemPerSwitch float64      `csv:"mem_per_switch"`
	MemAll       float64      `csv:"mem_all"`
	LookupLinear float64      `csv:"lookups_linear"`
	LookupConst  float64      `csv:"lookups_const"`
}

// AuthRateRow is one row of the authentication-rate ablation: the delay
// impact of running a MAC engine at a given throughput.
type AuthRateRow struct {
	Name       string  `csv:"algorithm"`
	RateGbps   float64 `csv:"rate_gbps"`
	QueuingUS  float64 `csv:"queuing_us"`
	NetworkUS  float64 `csv:"network_us"`
	Delivered  uint64  `csv:"delivered"`
	Bottleneck bool    // engine slower than the link
}

// AuthRateSweep answers the paper's section 5.2/7 question — "is it
// possible for authentication functions to operate at IBA link speed?" —
// inside the simulator: each row runs the cluster with per-message MAC
// delay set by the algorithm's throughput. Engines slower than the link
// (e.g. HMAC-SHA1's 0.22 Gb/s from Table 4) throttle injection and blow
// up queuing; engines at Gb/s class (UMAC) cost nearly nothing.
func AuthRateSweep(ctx context.Context, pool *runner.Pool, rates map[string]float64, load float64, base Config) ([]AuthRateRow, error) {
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	return sweep(ctx, pool, "authrate", names, func(name string) (AuthRateRow, error) {
		rate := rates[name]
		cfg := base
		cfg.Attackers = 0
		cfg.RealtimeLoad = 0
		cfg.BestEffortLoad = load
		cfg.Auth = AuthConfig{
			Enabled:        true,
			FuncID:         mac.IDUMAC32, // tag algorithm is irrelevant to timing
			Level:          transport.PartitionLevel,
			ThroughputGbps: rate,
		}
		res, err := Run(cfg)
		if err != nil {
			return AuthRateRow{}, err
		}
		return AuthRateRow{
			Name:       name,
			RateGbps:   rate,
			QueuingUS:  res.BestEffort.Queuing.Mean(),
			NetworkUS:  res.BestEffort.Network.Mean(),
			Delivered:  res.DeliveredLegit,
			Bottleneck: rate < base.Params.LinkBandwidth/1e9,
		}, nil
	})
}

// PaperTable4Rates returns the paper's Table 4 throughput column (Gb/s,
// normalized to 350 MHz hosts) for use with AuthRateSweep.
func PaperTable4Rates() map[string]float64 {
	return map[string]float64{
		"CRC-32":    11.2,
		"HMAC-SHA1": 0.22,
		"HMAC-MD5":  0.53,
		"UMAC":      4.00,
	}
}

// ScaleRow is one point of the mesh-size ablation.
type ScaleRow struct {
	Mesh      string `csv:"mesh"` // "WxH"
	Nodes     int    `csv:"nodes"`
	Attackers int    `csv:"attackers"`
	// Baseline (no attackers) and under-attack delays.
	BaseQueuingUS   float64 `csv:"base_queuing_us"`
	AttackQueuingUS float64 `csv:"attack_queuing_us"`
	BaseNetworkUS   float64 `csv:"base_network_us"`
	AttackNetworkUS float64 `csv:"attack_network_us"`
}

// ScaleSweep is a beyond-paper ablation: how the DoS damage of section
// 3.2 scales with fabric size. For each mesh geometry it runs the
// workload once clean and once with nodes/4 attackers, keeping per-node
// loads constant.
func ScaleSweep(ctx context.Context, pool *runner.Pool, sizes [][2]int, base Config) ([]ScaleRow, error) {
	return sweep(ctx, pool, "scale", sizes, func(wh [2]int) (ScaleRow, error) {
		cfg := base
		cfg.MeshW, cfg.MeshH = wh[0], wh[1]
		nodes := wh[0] * wh[1]
		// Keep at least a few nodes per partition so every node has
		// someone to talk to.
		if maxParts := nodes / 4; cfg.NumPartitions > maxParts {
			cfg.NumPartitions = maxParts
			if cfg.NumPartitions < 1 {
				cfg.NumPartitions = 1
			}
		}
		attackers := nodes / 4
		if attackers < 1 {
			attackers = 1
		}
		clean := cfg
		clean.Attackers = 0
		cleanRes, err := Run(clean)
		if err != nil {
			return ScaleRow{}, err
		}
		hot := cfg
		hot.Attackers = attackers
		hot.AttackDuty = 1.0
		hotRes, err := Run(hot)
		if err != nil {
			return ScaleRow{}, err
		}
		return ScaleRow{
			Mesh:            fmt.Sprintf("%dx%d", wh[0], wh[1]),
			Nodes:           nodes,
			Attackers:       attackers,
			BaseQueuingUS:   cleanRes.BestEffort.Queuing.Mean(),
			AttackQueuingUS: hotRes.BestEffort.Queuing.Mean(),
			BaseNetworkUS:   cleanRes.BestEffort.Network.Mean(),
			AttackNetworkUS: hotRes.BestEffort.Network.Mean(),
		}, nil
	})
}

// SMFloodRow is one point of the management-DoS experiment.
type SMFloodRow struct {
	FloodRate     float64 `csv:"flood_rate"`     // junk management packets per second
	RegLatencyUS  float64 `csv:"reg_latency_us"` // mean trap->registration latency
	RegLatencyMax float64 `csv:"reg_latency_max_us"`
	TrapsReceived uint64  `csv:"mads_processed"`
	Registrations uint64  `csv:"registrations"`
}

// SMFloodSweep quantifies the section-7 attack the paper leaves open:
// "DoS attack on the SM by dumping management messages and trap
// messages. Since a management packet can reach SM regardless of its
// partition, the attacker can dump management packets to slow down the
// SM and network." One node floods junk trap MADs at the SM at each
// rate while a conventional P_Key attacker runs; the row reports how
// long legitimate SIF registrations take as the SM's serial MAD
// processor backs up.
func SMFloodSweep(ctx context.Context, pool *runner.Pool, rates []float64, base Config) ([]SMFloodRow, error) {
	return sweep(ctx, pool, "smdos", rates, func(rate float64) (SMFloodRow, error) {
		cfg := base
		cfg.Enforcement = enforce.SIF
		cfg.Attackers = 1
		cfg.AttackDuty = 1.0
		if cfg.BestEffortLoad == 0 && cfg.RealtimeLoad == 0 {
			cfg.BestEffortLoad = 0.3
		}
		cl, err := Build(cfg)
		if err != nil {
			return SMFloodRow{}, err
		}
		if rate > 0 {
			startMADFlood(cl, rate)
		}
		cl.Simulate()
		return SMFloodRow{
			FloodRate:     rate,
			RegLatencyUS:  cl.SM.RegLatency.Mean(),
			RegLatencyMax: cl.SM.RegLatency.Max(),
			TrapsReceived: cl.SM.Counters.Value(sm.SMTrapsReceived),
			Registrations: cl.SM.Counters.Value(sm.SMSIFRegistrations),
		}, nil
	})
}

// startMADFlood arms a junk-trap generator on a non-SM, non-attacker
// node: each packet is a well-formed trap MAD whose offender LID does
// not exist, so the SM burns its per-trap processing time and registers
// nothing.
func startMADFlood(cl *Cluster, pktPerSec float64) {
	flooder := -1
	for i := cl.Mesh.NumNodes() - 1; i >= 0; i-- {
		if i != cl.Cfg.SM.Node && !cl.AttackSet[i] {
			flooder = i
			break
		}
	}
	if flooder < 0 {
		panic("core: no node available for MAD flood")
	}
	hca := cl.Mesh.HCA(flooder)
	interval := sim.Time(1e12 / pktPerSec)
	if interval < 1 {
		interval = 1
	}
	cl.Sim.Every(interval, func() {
		payload := make([]byte, 5)
		payload[0] = 1 // trap type: P_Key violation
		payload[1] = 0xFF
		payload[2] = 0xF0 // offender LID 0xFFF0: unlocatable
		payload[3] = 0x77
		payload[4] = 0x77
		d := hca.Params().NewMAD(hca.LID(), topology.LIDOf(cl.Cfg.SM.Node), payload)
		d.Attack = true
		d.Source = hca.Name()
		hca.Send(d)
	})
}

// DutyRow is one point of the SIF duty-cycle ablation.
type DutyRow struct {
	Duty       float64 `csv:"duty"`
	QueuingUS  float64 `csv:"queuing_us"`
	NetworkUS  float64 `csv:"network_us"`
	Dropped    uint64  `csv:"filtered"`
	AttackHits uint64  `csv:"leaked"`
}

// SweepDuty is an ablation beyond the paper: SIF delay as a function of
// attack duty cycle, quantifying the registration-window leakage that
// makes SIF slightly worse than IF at low loads in Figure 5.
func SweepDuty(ctx context.Context, pool *runner.Pool, duties []float64, load float64, base Config) ([]DutyRow, error) {
	return sweep(ctx, pool, "sweep_duty", duties, func(duty float64) (DutyRow, error) {
		cfg := base
		cfg.Enforcement = enforce.SIF
		cfg.Attackers = 4
		cfg.AttackDuty = duty
		cfg.RealtimeLoad = 0
		cfg.BestEffortLoad = load
		res, err := Run(cfg)
		if err != nil {
			return DutyRow{}, err
		}
		return DutyRow{
			Duty:       duty,
			QueuingUS:  res.BestEffort.Queuing.Mean(),
			NetworkUS:  res.BestEffort.Network.Mean(),
			Dropped:    res.FilterDropped,
			AttackHits: res.HCAViolations,
		}, nil
	})
}
