package core

import (
	"context"
	"reflect"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/mac"
	"ibasec/internal/runner"
	"ibasec/internal/sim"
	"ibasec/internal/trace"
	"ibasec/internal/transport"
)

// quickCfg returns a short-duration config for fast tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	return cfg
}

func TestConfigValidation(t *testing.T) {
	good := quickCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"zero mesh":        func(c *Config) { c.MeshW = 0 },
		"no partitions":    func(c *Config) { c.NumPartitions = 0 },
		"too many parts":   func(c *Config) { c.NumPartitions = 99 },
		"neg attackers":    func(c *Config) { c.Attackers = -1 },
		"all attackers":    func(c *Config) { c.Attackers = 16 },
		"huge msg":         func(c *Config) { c.MsgSize = 2048 },
		"zero msg":         func(c *Config) { c.MsgSize = 0 },
		"load > 1":         func(c *Config) { c.BestEffortLoad = 1.5 },
		"nothing to do":    func(c *Config) { c.BestEffortLoad = 0; c.RealtimeLoad = 0 },
		"warmup>=duration": func(c *Config) { c.Warmup = c.Duration },
		"bad duty":         func(c *Config) { c.AttackDuty = 0 },
		"nil params":       func(c *Config) { c.Params = nil },
		"neg attack rate":  func(c *Config) { c.Attackers = 1; c.AttackRate = -0.5 },
		"attack rate > 1":  func(c *Config) { c.Attackers = 1; c.AttackRate = 1.5 },
		"incast no attack": func(c *Config) { c.AttackIncast = true },
		"cc no threshold":  func(c *Config) { c.Congestion.CCTSize = 16 },
		"health neg score": func(c *Config) { c.Health.SweepPeriod = 40 * sim.Microsecond; c.Health.QuarantineScore = -1 },
		"health no sweep":  func(c *Config) { c.Health.Damping = true },
		"neg rekey period": func(c *Config) { c.Rekey.Period = -sim.Microsecond },
		"cc deep marking": func(c *Config) {
			c.Congestion = fabric.CCParams{MarkingThreshold: 999, CCTSize: 16, CCTStep: sim.Microsecond, CCTDecay: sim.Microsecond}
		},
	}
	for name, mutate := range cases {
		cfg := quickCfg()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestRunBaseline(t *testing.T) {
	cfg := quickCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredLegit == 0 {
		t.Fatal("no traffic delivered")
	}
	if res.BestEffort.Network.N() == 0 {
		t.Fatal("no best-effort samples")
	}
	// Idle-network latency on a 4x4 mesh at 40% load: low tens of µs.
	net := res.BestEffort.Network.Mean()
	if net < 8 || net > 40 {
		t.Fatalf("baseline network latency %.1fus outside sanity band", net)
	}
	if res.HCAViolations != 0 || res.AttackDelivered != 0 {
		t.Fatal("violations without attackers")
	}
}

// TestRunDeterminism is the same-seed regression gate: two runs of one
// configuration (SIF under a duty-cycled attacker, packet-lifecycle
// recorder on) must agree on every recorded event — timestamp, kind,
// node and packet identity, in firing order — on the number of events
// the simulator fired, and on the full delay statistics.
func TestRunDeterminism(t *testing.T) {
	cfg := determinismCfg()
	run := func(cfg Config) ([]trace.Event, *Results, uint64) {
		t.Helper()
		cl, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := cl.Simulate()
		return cl.Trace.Events(), res, cl.Sim.Fired()
	}
	aEvents, a, aFired := run(cfg)
	bEvents, b, bFired := run(cfg)
	if len(aEvents) == 0 {
		t.Fatal("run recorded no trace events")
	}
	if aFired != bFired {
		t.Errorf("same seed fired %d events, then %d", aFired, bFired)
	}
	if len(aEvents) != len(bEvents) {
		t.Fatalf("same seed recorded %d trace events, then %d", len(aEvents), len(bEvents))
	}
	for i := range aEvents {
		if aEvents[i] != bEvents[i] {
			t.Fatalf("same seed, trace diverges at event %d:\nfirst:  %v\nsecond: %v", i, aEvents[i], bEvents[i])
		}
	}
	if !reflect.DeepEqual(a.Realtime, b.Realtime) || !reflect.DeepEqual(a.BestEffort, b.BestEffort) {
		t.Error("same seed, different delay statistics")
	}
	if a.DeliveredLegit != b.DeliveredLegit || a.AttackDelivered != b.AttackDelivered ||
		a.FilterDropped != b.FilterDropped || a.TrapsSent != b.TrapsSent || a.HCAViolations != b.HCAViolations {
		t.Errorf("same seed, different counters: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	_, c, _ := run(cfg)
	if c.DeliveredLegit == a.DeliveredLegit && c.BestEffort.Queuing.Mean() == a.BestEffort.Queuing.Mean() {
		t.Fatal("different seed produced identical run")
	}
}

// Two simulations running at once under the experiment runner share their
// base config's *fabric.Params, as every sweep's points do; each cluster
// copies it, so each has a message free list of its own and no block
// crosses from one simulation into the other: the concurrent results are
// the serial ones, and `go test -race` sees no shared write.
func TestConcurrentRunsShareNoMessages(t *testing.T) {
	base := quickCfg()
	base.Attackers = 2
	base.Enforcement = enforce.SIF
	cfgs := []Config{base, base}
	cfgs[1].Seed = 2
	if cfgs[0].Params != cfgs[1].Params {
		t.Fatal("the points do not share their Params: the test exercises nothing")
	}
	var serial []*Results
	for _, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, res)
	}
	concurrent, err := sweep(context.Background(), runner.New(runner.Options{Workers: len(cfgs)}), "concurrent", cfgs, Run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].DeliveredLegit == 0 || serial[i].FilterDropped == 0 {
			t.Fatalf("point %d moved no traffic: %+v", i, serial[i])
		}
		if !reflect.DeepEqual(serial[i], concurrent[i]) {
			t.Errorf("point %d: run beside another simulation it gives\n%+v\nalone\n%+v", i, concurrent[i], serial[i])
		}
	}
}

// The headline result of section 3.2: attackers inflate queuing time of
// legitimate traffic while the destination HCAs drop all attack packets.
func TestDoSInflatesQueuing(t *testing.T) {
	cfg := quickCfg()
	cfg.BestEffortLoad = 0.65
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Attackers = 4
	attacked, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if attacked.BestEffort.Queuing.Mean() < 2*base.BestEffort.Queuing.Mean() {
		t.Fatalf("queuing %.2f -> %.2f: DoS should at least double it",
			base.BestEffort.Queuing.Mean(), attacked.BestEffort.Queuing.Mean())
	}
	if attacked.HCAViolations == 0 {
		t.Fatal("attack packets never reached a victim HCA")
	}
	// Network latency rises only marginally relative to queuing (the
	// credit-flow-control effect the paper highlights).
	qGrow := attacked.BestEffort.Queuing.Mean() / (base.BestEffort.Queuing.Mean() + 1)
	nGrow := attacked.BestEffort.Network.Mean() / base.BestEffort.Network.Mean()
	if nGrow > qGrow {
		t.Fatalf("network latency grew faster (%.2fx) than queuing (%.2fx)", nGrow, qGrow)
	}
}

// Ingress filtering removes the attack entirely: victims see no invalid
// packets and queuing returns near baseline.
func TestIFBlocksDoS(t *testing.T) {
	cfg := quickCfg()
	cfg.BestEffortLoad = 0.65
	cfg.Attackers = 4

	nofilter, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Enforcement = enforce.IF
	filtered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.HCAViolations != 0 {
		t.Fatalf("IF leaked %d attack packets to victims", filtered.HCAViolations)
	}
	if filtered.FilterDropped == 0 {
		t.Fatal("IF dropped nothing")
	}
	if filtered.BestEffort.Queuing.Mean() >= nofilter.BestEffort.Queuing.Mean() {
		t.Fatalf("IF queuing %.2f >= unfiltered %.2f",
			filtered.BestEffort.Queuing.Mean(), nofilter.BestEffort.Queuing.Mean())
	}
}

// SIF's full control loop inside a cluster run: traps fire, the SM
// registers invalid keys, ingress switches activate and drop.
func TestSIFActivatesInCluster(t *testing.T) {
	cfg := quickCfg()
	cfg.Enforcement = enforce.SIF
	cfg.Attackers = 2
	cfg.AttackDuty = 1.0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrapsSent == 0 {
		t.Fatal("no traps sent")
	}
	if res.SIFRegistrations == 0 {
		t.Fatal("SM registered nothing")
	}
	if res.FilterActivations == 0 {
		t.Fatal("no switch activated")
	}
	if res.FilterDropped == 0 {
		t.Fatal("active SIF dropped nothing")
	}
	// Leakage before activation is expected, but filtering must win
	// over the run: most attack packets die at the ingress.
	if res.FilterDropped < res.HCAViolations {
		t.Fatalf("SIF dropped %d but %d leaked", res.FilterDropped, res.HCAViolations)
	}
}

// Partition-level auth end to end in a cluster: all legit traffic signed
// and verified, zero failures, marginal delay overhead (Figure 6's
// conclusion).
func TestClusterPartitionLevelAuth(t *testing.T) {
	cfg := quickCfg()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.PartitionLevel}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsSigned == 0 || res.AuthOK == 0 {
		t.Fatalf("signed=%d verified=%d", res.PacketsSigned, res.AuthOK)
	}
	if res.AuthFail != 0 {
		t.Fatalf("%d legit packets failed verification", res.AuthFail)
	}
	if res.KeyExchanges != 0 {
		t.Fatal("partition-level management should not need key exchanges")
	}
	// Overhead must be marginal: within 2x of plain queuing + 10us.
	if res.BestEffort.Queuing.Mean() > 2*plain.BestEffort.Queuing.Mean()+10 {
		t.Fatalf("auth queuing %.2f vs plain %.2f: not marginal",
			res.BestEffort.Queuing.Mean(), plain.BestEffort.Queuing.Mean())
	}
}

func TestClusterQPLevelAuth(t *testing.T) {
	cfg := quickCfg()
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.QPLevel}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 16 nodes x 3 partition peers = 48 exchanges.
	if res.KeyExchanges != 48 {
		t.Fatalf("key exchanges = %d, want 48", res.KeyExchanges)
	}
	if res.AuthOK == 0 || res.AuthFail != 0 {
		t.Fatalf("authOK=%d authFail=%d", res.AuthOK, res.AuthFail)
	}
}

// Utilization accounting: utilizations are sane fractions, the max link
// is hotter than the mean, and raising the load raises utilization.
func TestLinkUtilization(t *testing.T) {
	cfg := quickCfg()
	cfg.BestEffortLoad = 0.3
	low, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BestEffortLoad = 0.6
	high, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Results{low, high} {
		if r.MeanLinkUtil <= 0 || r.MeanLinkUtil > 1 {
			t.Fatalf("mean util %v out of range", r.MeanLinkUtil)
		}
		if r.MaxLinkUtil < r.MeanLinkUtil || r.MaxLinkUtil > 1 {
			t.Fatalf("max util %v vs mean %v", r.MaxLinkUtil, r.MeanLinkUtil)
		}
	}
	if high.MeanLinkUtil <= low.MeanLinkUtil {
		t.Fatalf("utilization did not rise with load: %v -> %v", low.MeanLinkUtil, high.MeanLinkUtil)
	}
	// DOR on a mesh concentrates traffic: the hottest link should be
	// well above the average.
	if high.MaxLinkUtil < 1.3*high.MeanLinkUtil {
		t.Fatalf("no hot link: max %v, mean %v", high.MaxLinkUtil, high.MeanLinkUtil)
	}
}

// The trace ring captures lifecycle events across a cluster run.
func TestClusterTracing(t *testing.T) {
	cfg := quickCfg()
	cfg.TraceCapacity = 4096
	cfg.Attackers = 2
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Simulate()
	if cl.Trace == nil {
		t.Fatal("no trace ring attached")
	}
	if cl.Trace.Total() == 0 {
		t.Fatal("nothing traced")
	}
	counts := cl.Trace.CountByKind()
	if counts[fabric.ObsDeliver] == 0 || counts[fabric.ObsForward] == 0 {
		t.Fatalf("missing event kinds: %v", counts)
	}
	if counts[fabric.ObsPKeyReject] == 0 {
		t.Fatal("attacker rejections not traced")
	}
}

func TestFig1ShapeQuick(t *testing.T) {
	base := quickCfg()
	base.BestEffortLoad = 0.65
	rows, err := Fig1(context.Background(), nil, fabric.ClassBestEffort, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AttackHits != 0 {
		t.Fatal("hits with zero attackers")
	}
	if rows[2].QueuingUS <= rows[0].QueuingUS {
		t.Fatalf("queuing did not grow with attackers: %v -> %v", rows[0].QueuingUS, rows[2].QueuingUS)
	}
	if rows[2].AttackHits == 0 {
		t.Fatal("no attack packets observed")
	}
}

func TestFig5Quick(t *testing.T) {
	base := quickCfg()
	base.AttackCycle = sim.Millisecond
	rows, err := Fig5(context.Background(), nil, []float64{0.4}, 0.05, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[enforce.Mode]Fig5Row{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	// DPT and IF block everything; SIF partially; NoFiltering nothing.
	if byMode[enforce.DPT].AttackHits != 0 || byMode[enforce.IF].AttackHits != 0 {
		t.Fatal("DPT/IF leaked attack packets")
	}
	if byMode[enforce.NoFiltering].Dropped != 0 {
		t.Fatal("NoFiltering dropped packets")
	}
	if byMode[enforce.SIF].Dropped == 0 {
		t.Fatal("SIF never engaged")
	}
}

func TestFig6Quick(t *testing.T) {
	base := quickCfg()
	rows, err := Fig6(context.Background(), nil, []float64{0.4}, transport.QPLevel, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	noKey, withKey := rows[0], rows[1]
	if noKey.WithKey || !withKey.WithKey {
		t.Fatal("row order")
	}
	if withKey.KeyExchanges != 48 || noKey.KeyExchanges != 0 {
		t.Fatalf("key exchanges: %d / %d", noKey.KeyExchanges, withKey.KeyExchanges)
	}
	if withKey.PacketsSigned == 0 {
		t.Fatal("nothing signed")
	}
	// The paper's conclusion: overhead is insignificant.
	if withKey.QueuingUS > 2*noKey.QueuingUS+10 {
		t.Fatalf("auth overhead not marginal: %.2f vs %.2f", withKey.QueuingUS, noKey.QueuingUS)
	}
}

func TestTable2Rows(t *testing.T) {
	rows := Table2Rows(4, 0.01, 2)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Mode != enforce.DPT || rows[0].MemPerSwitch != 64 {
		t.Fatalf("DPT row: %+v", rows[0])
	}
	if rows[1].Mode != enforce.IF || rows[1].MemPerSwitch != 4 {
		t.Fatalf("IF row: %+v", rows[1])
	}
	if !(rows[2].LookupLinear < rows[1].LookupLinear) {
		t.Fatal("SIF must beat IF on lookups/packet")
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4(188, 20_000_000, 2.0) // 20ms budget per algorithm
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.GbitsPerSec <= 0 || r.CyclesByte <= 0 {
			t.Fatalf("%s: non-positive measurement %+v", r.Name, r)
		}
	}
	// Table 4's load-bearing orderings: CRC fastest; UMAC faster than
	// both HMACs; forgery CRC=1 > UMAC > 0. The paper's HMAC-MD5 >
	// HMAC-SHA1 gap reflects 1999-era software — modern SHA-1 assembly
	// puts the two within a small factor of each other, so we only
	// require them to be in the same band (documented in
	// EXPERIMENTS.md).
	//
	// The orderings compare host-timed throughputs. The race detector
	// instruments UMAC's Go code around NH (the L3 hash, the pad), and NH
	// itself where it falls back to the Go loop, but no assembly: not NH's
	// AVX2 kernel on amd64, nor MD5, SHA-1 and CRC-32 (icrc.CRC32 is
	// hash/crc32, the ICRC's payload kernel). So under -race on a busy box
	// UMAC can tie HMAC-MD5.
	// They are asserted uninstrumented only (scripts/ci.sh runs this test
	// once without -race for that); everything else runs either way.
	if !raceEnabled {
		for _, pair := range [][2]string{{"CRC-32", "UMAC-32"}, {"UMAC-32", "HMAC-SHA1"}, {"UMAC-32", "HMAC-MD5"}} {
			fast, slow := byName[pair[0]].GbitsPerSec, byName[pair[1]].GbitsPerSec
			if !(fast > slow) {
				t.Fatalf("%s (%.2f) not faster than %s (%.2f)", pair[0], fast, pair[1], slow)
			}
		}
	}
	ratio := byName["HMAC-MD5"].GbitsPerSec / byName["HMAC-SHA1"].GbitsPerSec
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("HMAC-MD5/HMAC-SHA1 ratio %.2f outside sanity band", ratio)
	}
	if byName["CRC-32"].ForgeryProb != 1.0 {
		t.Fatal("CRC forgery probability must be 1")
	}
	if byName["UMAC-32"].ForgeryProb >= 1e-6 {
		t.Fatal("UMAC forgery probability must be tiny")
	}
}

func TestSweepDuty(t *testing.T) {
	base := quickCfg()
	base.AttackCycle = sim.Millisecond
	rows, err := SweepDuty(context.Background(), nil, []float64{0.01, 0.5}, 0.4, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Higher duty means more attack exposure: more drops+hits combined.
	if rows[1].Dropped+rows[1].AttackHits <= rows[0].Dropped+rows[0].AttackHits {
		t.Fatalf("duty sweep not monotone: %+v vs %+v", rows[0], rows[1])
	}
}

// Section 7's open problem: flooding the SM with management MADs delays
// legitimate SIF registrations. Latency must grow monotonically with the
// flood rate and the junk traps must never cause registrations.
func TestSMFloodDelaysRegistration(t *testing.T) {
	base := quickCfg()
	base.Duration = 4 * sim.Millisecond
	rows, err := SMFloodSweep(context.Background(), nil, []float64{0, 200e3, 400e3}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].RegLatencyUS <= rows[i-1].RegLatencyUS {
			t.Fatalf("registration latency not increasing: %.2f then %.2f",
				rows[i-1].RegLatencyUS, rows[i].RegLatencyUS)
		}
	}
	if rows[0].Registrations == 0 {
		t.Fatal("no legitimate registrations")
	}
	for _, r := range rows {
		if r.Registrations != rows[0].Registrations {
			t.Fatalf("junk traps caused registrations: %d vs %d", r.Registrations, rows[0].Registrations)
		}
	}
	if rows[2].TrapsReceived < 10*rows[0].TrapsReceived {
		t.Fatalf("flood traffic missing: %d vs %d traps", rows[2].TrapsReceived, rows[0].TrapsReceived)
	}
}

func TestAuthRateSweepShape(t *testing.T) {
	base := quickCfg()
	rows, err := AuthRateSweep(context.Background(), nil, PaperTable4Rates(), 0.5, base)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AuthRateRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// HMAC-SHA1 (0.22 Gb/s) must visibly throttle; UMAC (4 Gb/s) must
	// be near the CRC bar — the paper's link-speed argument.
	if !byName["HMAC-SHA1"].Bottleneck || byName["UMAC"].Bottleneck {
		t.Fatal("bottleneck classification wrong")
	}
	if byName["HMAC-SHA1"].QueuingUS < 3*byName["UMAC"].QueuingUS {
		t.Fatalf("HMAC-SHA1 queuing %.2f not >> UMAC %.2f",
			byName["HMAC-SHA1"].QueuingUS, byName["UMAC"].QueuingUS)
	}
	if byName["HMAC-SHA1"].Delivered >= byName["UMAC"].Delivered {
		t.Fatal("slow MAC did not reduce goodput")
	}
}

// EXPERIMENTS.md claims the realtime class suffers more from a
// best-effort-VL attack under the IBA weighted arbiter than under strict
// priority (cross-VL coupling). Verify the ordering.
func TestWeightedArbiterCouplesClasses(t *testing.T) {
	base := quickCfg()
	base.Duration = 4 * sim.Millisecond
	base.RealtimeLoad = 0.6
	base.BestEffortLoad = 0
	base.Attackers = 4
	base.AttackClass = fabric.ClassBestEffort // attack the OTHER lane

	strict, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	weighted := base
	p := *base.Params
	p.Arbitration = fabric.ArbWeighted
	p.HighPriLimit = 2
	weighted.Params = &p
	wres, err := Run(weighted)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Realtime.Queuing.Mean() <= strict.Realtime.Queuing.Mean() {
		t.Fatalf("weighted arbiter should couple the BE attack into realtime: strict %.2fus, weighted %.2fus",
			strict.Realtime.Queuing.Mean(), wres.Realtime.Queuing.Mean())
	}
}

func TestAttackClassFollowsConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.RealtimeLoad = 0.3
	cfg.BestEffortLoad = 0
	cfg.Attackers = 2
	cfg.AttackClass = fabric.ClassRealtime
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HCAViolations == 0 {
		t.Fatal("realtime-class attack packets never arrived")
	}
	if res.Realtime.Network.N() == 0 {
		t.Fatal("no realtime samples")
	}
}
