package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/sim"
	"ibasec/internal/trace"
	"ibasec/internal/transport"
)

var updateEventOrder = flag.Bool("update-event-order", false,
	"rewrite testdata/event_order.json from this build (only ever at a commit whose event order is the reference)")

const eventOrderFile = "testdata/event_order.json"

// eventOrderPin is one configuration's firing-order fingerprint: how many
// events the simulator fired, how many packet-lifecycle observations the
// fabric made, and an FNV-64a over every field of every observation in
// firing order.
type eventOrderPin struct {
	Fired       uint64 `json:"fired"`
	TraceEvents uint64 `json:"trace_events"`
	TraceFNV64a string `json:"trace_fnv64a"`
}

// determinismCfg is TestRunDeterminism's configuration: SIF under a
// duty-cycled attacker with the packet-lifecycle recorder on.
func determinismCfg() Config {
	cfg := quickCfg()
	cfg.RealtimeLoad = 0.5
	cfg.BestEffortLoad = 0.4
	cfg.Attackers = 1
	cfg.AttackDuty = 0.5
	cfg.AttackCycle = cfg.Duration / 4
	cfg.Enforcement = enforce.SIF
	cfg.TraceCapacity = 1 << 15
	return cfg
}

// allPlanesCfg turns every SM plane on at once over light authenticated
// traffic (bench's mgmt-planes shape, shortened): HA standbys, key
// rotation, the policy drift auditor, the PerfMgr health plane, periodic
// re-sweeps and congestion control.
func allPlanesCfg() Config {
	cfg := quickCfg()
	cfg.Duration = 3 * sim.Millisecond
	cfg.NumPartitions = 1
	cfg.BestEffortLoad = 0.1
	cfg.Enforcement = enforce.SIF
	cfg.Auth = AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: transport.PartitionLevel}
	cfg.ResweepPeriod = 200 * sim.Microsecond
	cfg.Health = HealthParams{SweepPeriod: 40 * sim.Microsecond, TrapThreshold: 6, Damping: true}
	cfg.HA = HAParams{Standbys: 2, Heartbeat: 50 * sim.Microsecond}
	cfg.Policy = PolicyParams{Enabled: true, AuditPeriod: 100 * sim.Microsecond, Repair: true}
	cfg.Rekey = RekeyParams{Period: sim.Millisecond, Grace: 300 * sim.Microsecond, DistributionDelay: 2 * sim.Microsecond}
	cfg.Congestion = DefaultCCParams()
	cfg.TraceCapacity = 1
	return cfg
}

// allPlanesFailoverCfg is allPlanesCfg with the master killed a third of
// the way in: the one run whose takeover hands every plane over at once
// (rotator rebind, policy and congestion inheritance, PerfMgr rebuild).
func allPlanesFailoverCfg() Config {
	cfg := allPlanesCfg()
	cfg.FaultPlan = &faults.Plan{Seed: cfg.Seed, SMKills: []faults.SMKill{{At: cfg.Duration / 3}}}
	return cfg
}

// faultsRCCfg is the faults experiment's quick point (two link kills, a
// 1e-5 BER burst, HOQ ageing, the self-healing re-sweep) with its RC
// probes armed by simulateFaultsRC: every ack that drains a probe's window
// cancels its retransmission timer, so this is the pin on the engine's
// cancel path.
func faultsRCCfg() Config {
	cfg := quickCfg()
	cfg, err := faultPointCfg(cfg, faultPoint{Mode: cfg.Enforcement, BER: 1e-5, Kills: 2})
	if err != nil {
		panic(err)
	}
	cfg.TraceCapacity = 1
	return cfg
}

// simulateFaultsRC arms the fault point's RC probes on cl, then runs it.
func simulateFaultsRC(t *testing.T) func(*Cluster) *Results {
	return func(cl *Cluster) *Results {
		if _, _, err := armFaultProbes(cl); err != nil {
			t.Fatal(err)
		}
		return cl.Simulate()
	}
}

// hashTraceEvent folds every field of ev into h. Node is length-prefixed
// so adjacent fields cannot alias.
func hashTraceEvent(h hash.Hash64, ev trace.Event) {
	var b [8]byte
	for _, v := range []uint64{
		uint64(ev.At), uint64(ev.Kind), uint64(len(ev.Node)), uint64(ev.Class),
		uint64(ev.SLID), uint64(ev.DLID), uint64(ev.PKey), uint64(ev.PSN),
		uint64(ev.Op), uint64(ev.Size), uint64(ev.Hops),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write([]byte(ev.Node))
}

// eventOrderOf builds cfg and runs it through simulate — normally
// (*Cluster).Simulate.
func eventOrderOf(t *testing.T, cfg Config, simulate func(*Cluster) *Results) eventOrderPin {
	t.Helper()
	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The ring's filter sees every observation before the capacity
	// limit applies, so the hash covers the whole run.
	h := fnv.New64a()
	var n uint64
	cl.Trace.Filter = func(ev trace.Event) bool {
		hashTraceEvent(h, ev)
		n++
		return false
	}
	simulate(cl)
	return eventOrderPin{Fired: cl.Sim.Fired(), TraceEvents: n, TraceFNV64a: fmt.Sprintf("%016x", h.Sum64())}
}

// TestEventOrderPinned holds the engine to the event order of the commit
// that recorded each entry of testdata/event_order.json (the parent of the
// closure-free hop path for the first three, the parent of the timing
// wheel for faults_rc), not merely to itself:
// TestRunDeterminism passes any reordering that is consistent from run to
// run, and the golden CSVs pin statistics, not firing order. An engine or
// fabric change that moves a single event's position changes the hash.
func TestEventOrderPinned(t *testing.T) {
	got := map[string]eventOrderPin{
		"determinism":         eventOrderOf(t, determinismCfg(), (*Cluster).Simulate),
		"all_planes":          eventOrderOf(t, allPlanesCfg(), (*Cluster).Simulate),
		"all_planes_failover": eventOrderOf(t, allPlanesFailoverCfg(), (*Cluster).Simulate),
		"faults_rc":           eventOrderOf(t, faultsRCCfg(), simulateFaultsRC(t)),
	}
	if *updateEventOrder {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(eventOrderFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(eventOrderFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]eventOrderPin
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", eventOrderFile, err)
	}
	for name, g := range got {
		if g.TraceEvents == 0 {
			t.Errorf("%s: run observed no packet events", name)
		}
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: event order moved\n got  %+v\n want %+v", name, g, w)
		}
	}
}
