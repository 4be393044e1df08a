package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/faults"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// The acceptance demo of the self-healing subnet: an RC transfer is
// running across a link that is killed mid-stream. The SM's periodic
// re-sweep must detect the dead link, reroute around it and reprogram
// the switches fast enough that transport-level retransmission carries
// the connection through with zero lost messages.
func TestLinkKillRCRidesThroughResweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 4 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond
	cfg.BestEffortLoad = 0.1
	cfg.ResweepPeriod = 200 * sim.Microsecond
	// Kill the link between switches 0 and 1 at 1 ms, restore at 2.5 ms.
	// Dimension-ordered routing sends node 0 -> node 3 east along the top
	// row, so the flow crosses this link in both directions.
	cfg.FaultPlan = &faults.Plan{
		Seed: cfg.Seed,
		Links: []faults.LinkKill{{
			Link:   topology.LinkID{Switch: 0, Port: topology.PortEast},
			DownAt: sim.Millisecond,
			UpAt:   2500 * sim.Microsecond,
		}},
	}

	cl, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// A private partition for the probe pair, independent of the random
	// grouping: only the HCA-level P_Key check sees it (no filtering).
	pk := packet.PKey(0x8FFF)
	cl.Mesh.HCA(0).PKeyTable.Add(pk)
	cl.Mesh.HCA(3).PKeyTable.Add(pk)
	mkEp := func(node int) *transport.Endpoint {
		ep := transport.NewEndpoint(cl.Mesh.HCA(node), transport.Config{
			Registry: mac.DefaultRegistry(),
			KeyLevel: transport.PartitionLevel,
		})
		cl.Endpoints[node] = ep
		return ep
	}
	epA, epB := mkEp(0), mkEp(3)
	qpA := epA.CreateRCQP(pk)
	qpB := epB.CreateRCQP(pk)

	var delivered uint64
	var maxLatency sim.Time
	qpB.OnRecv = func(payload []byte, _ packet.LID, _ packet.QPN) {
		stamp := sim.Time(binary.BigEndian.Uint64(payload))
		if lat := cl.Sim.Now() - stamp; lat > maxLatency {
			maxLatency = lat
		}
		delivered++
	}
	connected := false
	if err := epA.ConnectRC(qpA, topology.LIDOf(3), qpB.N, func(err error) {
		if err != nil {
			t.Errorf("connect: %v", err)
		}
		connected = true
	}); err != nil {
		t.Fatal(err)
	}

	var sent uint64
	cl.Sim.Every(10*sim.Microsecond, func() {
		if !connected || cl.Sim.Now() > 3*sim.Millisecond {
			return
		}
		payload := make([]byte, 64)
		binary.BigEndian.PutUint64(payload, uint64(cl.Sim.Now()))
		if err := epA.SendRC(qpA, payload, fabric.ClassBestEffort); err != nil {
			t.Fatalf("send: %v", err)
		}
		sent++
	})

	cl.Simulate()

	if sent == 0 {
		t.Fatal("no probe messages sent")
	}
	if qpA.Broken() {
		t.Fatal("RC connection broke despite self-healing")
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d RC messages", delivered, sent)
	}
	if maxLatency == 0 || maxLatency > sim.Millisecond {
		t.Fatalf("recovery tail %v outside (0, 1ms]", maxLatency)
	}

	r := cl.Resweeper
	if r == nil {
		t.Fatal("resweeper not armed")
	}
	if r.Counters.Value(sm.ResweepDetections) == 0 {
		t.Fatal("dead link never detected")
	}
	if r.Counters.Value(sm.ResweepLostLinks) == 0 || r.Counters.Value(sm.ResweepRestoredLinks) == 0 {
		t.Fatalf("lost=%d restored=%d links", r.Counters.Value(sm.ResweepLostLinks), r.Counters.Value(sm.ResweepRestoredLinks))
	}
	// One reroute for the loss, one when the link comes back.
	if r.Counters.Value(sm.ResweepReroutes) < 2 {
		t.Fatalf("reroutes = %d, want >= 2", r.Counters.Value(sm.ResweepReroutes))
	}
	if r.RerouteLatency.N() == 0 || r.RerouteLatency.Mean() <= 0 {
		t.Fatal("reroute latency not recorded")
	}

	// Detection: the first heal event must see the kill within one sweep
	// period plus the terminal probe timeout (25+50+100 us of backoff).
	if len(cl.healEvents) == 0 {
		t.Fatal("no heal events recorded")
	}
	ev := cl.healEvents[0]
	if ev.LostEdges == 0 || ev.DetectedAt < sim.Millisecond {
		t.Fatalf("first heal event %+v does not reflect the kill", ev)
	}
	if lag := ev.DetectedAt - sim.Millisecond; lag > 400*sim.Microsecond {
		t.Fatalf("detection latency %v, want <= 400us", lag)
	}
	if ev.HealedAt <= ev.DetectedAt {
		t.Fatalf("healed %v not after detected %v", ev.HealedAt, ev.DetectedAt)
	}
}

// Same seed, same plan: two chaos runs must agree bit for bit.
func TestFaultPointDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond

	run := func() FaultRow {
		row, err := runFaultPoint(cfg, faultPoint{Mode: cfg.Enforcement, BER: 1e-5, Kills: 2})
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic fault point:\n%+v\n%+v", a, b)
	}
	if a.RCSent == 0 || a.RCDelivered == 0 {
		t.Fatalf("probe flows idle: %+v", a)
	}
	if a.Resweeps == 0 {
		t.Fatal("resweeper never swept")
	}
}

// A fault-free chaos point must lose nothing: every background datagram
// and every RC probe message arrives, and no packet is blackholed.
func TestFaultPointCleanBaseline(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2 * sim.Millisecond
	cfg.Warmup = 200 * sim.Microsecond

	row, err := runFaultPoint(cfg, faultPoint{Mode: cfg.Enforcement})
	if err != nil {
		t.Fatal(err)
	}
	// The fabric is lossless; the only sent-but-undelivered datagrams are
	// the ones still in flight when the clock stops.
	if row.DeliveredFrac < 0.95 || row.DeliveredFrac > 1 {
		t.Fatalf("delivered fraction %v with no faults", row.DeliveredFrac)
	}
	if row.Blackholed != 0 || row.CRCRejected != 0 {
		t.Fatalf("blackholed=%d crc=%d with no faults", row.Blackholed, row.CRCRejected)
	}
	if row.RCBroken != 0 || row.RCSent == 0 || row.RCDelivered != row.RCSent {
		t.Fatalf("RC probes %+v with no faults", row)
	}
	if row.Reroutes != 0 {
		t.Fatalf("%d reroutes on a healthy fabric", row.Reroutes)
	}
}
