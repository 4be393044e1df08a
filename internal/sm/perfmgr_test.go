package sm

import (
	"bytes"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// CounterDelta must clamp instead of going negative: a saturated or
// management-reset counter can only underestimate the delta (IBA
// saturating semantics), never produce a bogus huge error count.
func TestCounterDeltaNeverNegative(t *testing.T) {
	cases := []struct {
		prev, cur uint16
		want      uint64
	}{
		{0, 0, 0},
		{0, 7, 7},
		{100, 250, 150},
		{250, 250, 0},
		{0xFFFF, 0xFFFF, 0}, // both reads saturated
		{0xFFF0, 0xFFFF, 15},
		{0xFFFF, 3, 0}, // management reset between reads
		{200, 100, 0},  // same, mid-range
	}
	for _, c := range cases {
		if got := CounterDelta(c.prev, c.cur); got != c.want {
			t.Errorf("CounterDelta(%#x, %#x) = %d, want %d", c.prev, c.cur, got, c.want)
		}
	}
}

// The PortCounters wire codec must round-trip every field, including
// ceiling values.
func TestPortCountersWireRoundTrip(t *testing.T) {
	pcs := []fabric.PortCounters{
		{},
		{SymbolErrors: 1, RcvErrors: 2, LinkDowned: 3, XmitDiscards: 4, VL15Dropped: 5},
		{SymbolErrors: 0xFFFF, RcvErrors: 0xFFFF, LinkDowned: 0xFF, XmitDiscards: 0xFFFF, VL15Dropped: 0xFFFF},
	}
	for _, pc := range pcs {
		data := make([]byte, smpDataSize)
		encodePortCounters(data, pc)
		if got := ParsePortCounters(data); got != pc {
			t.Errorf("round trip: got %+v, want %+v", got, pc)
		}
	}
}

func TestHealthBlobRoundTrip(t *testing.T) {
	entries := []HealthEntry{
		{Link: topology.LinkID{Switch: 5, Port: topology.PortEast}, Flaps: 3, HoldUntil: 1234 * sim.Microsecond},
		{Link: topology.LinkID{Switch: 9, Port: topology.PortSouth}, Flaps: 1, HoldUntil: 0},
	}
	blob := EncodeHealthBlob(entries)
	if string(blob[:syncMagicSize]) != HealthMagic {
		t.Fatal("encoded blob does not open with the plane's magic")
	}
	if _, err := ParseCCBlob(blob); err == nil {
		t.Fatal("health blob parsed as a congestion blob")
	}
	got, err := ParseHealthBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got[i], entries[i])
		}
	}
	// The empty blob (count 0) must still round-trip: it is how a
	// readmit-to-clean state propagates to standbys.
	empty := EncodeHealthBlob(nil)
	if got, err := ParseHealthBlob(empty); err != nil || len(got) != 0 {
		t.Fatalf("empty blob: %v, %d entries", err, len(got))
	}
}

func TestHealthBlobRejectsGarbage(t *testing.T) {
	good := EncodeHealthBlob([]HealthEntry{{Link: topology.LinkID{Switch: 1, Port: topology.PortEast}}})
	bad := [][]byte{
		nil,
		[]byte("IBH"),                           // truncated magic
		[]byte("XXQ\x00\x01"),                   // wrong magic
		append([]byte{}, good[:len(good)-1]...), // truncated entry
	}
	verByte := append([]byte(nil), good...)
	verByte[4] = 99 // unknown version
	bad = append(bad, verByte)
	for i, b := range bad {
		if _, err := ParseHealthBlob(b); err == nil {
			t.Errorf("bad blob %d parsed without error", i)
		}
	}
	if _, err := ParseHealthBlob(append([]byte(CCMagic), good[len(CCMagic):]...)); err == nil {
		t.Error("CC magic accepted as a health blob")
	}
}

// perfTestMesh builds a statically configured 4x4 mesh with SMP agents
// attached and a corruption RNG installed, the environment the PerfMgr
// sweeps in production.
func perfTestMesh(t *testing.T) (*sim.Simulator, *topology.Mesh) {
	t.Helper()
	s := sim.New()
	params := fabric.DefaultParams()
	params.RNG = rand.New(rand.NewSource(7))
	mesh := topology.NewMesh(s, params, 4, 4)
	AttachSwitchAgents(mesh, discMKey)
	for _, h := range mesh.HCAs {
		AttachNodeAgent(h, discMKey)
	}
	return s, mesh
}

func perfDisc(s *sim.Simulator, mesh *topology.Mesh) *Discoverer {
	disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 25*sim.Microsecond)
	disc.MaxRetries = 2
	disc.SetTimeoutMult = 10
	return disc
}

// sendAcross injects one best-effort datagram from node src to node
// dst through the statically configured fabric.
func sendAcross(mesh *topology.Mesh, src, dst int) {
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(src), DLID: topology.LIDOf(dst)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1},
		DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
		Payload: make([]byte, 256),
	}
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	mesh.HCA(src).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
}

// TestPortCountersMAD exercises the PMA attribute over the wire: a Get
// returns the port's counters, an out-of-range port is rejected, and a
// trap-rearm Set without the M_Key is refused.
func TestPortCountersMAD(t *testing.T) {
	s, mesh := perfTestMesh(t)
	paths := SwitchPaths(mesh, 0)

	disc := perfDisc(s, mesh)
	req := make([]byte, smpDataSize)
	req[0] = byte(topology.PortEast)
	var status byte = 0xEE
	var pc fabric.PortCounters
	disc.Query(MethodGet, AttrPortCounters, paths[5], req, QueryFunc(func(st byte, data []byte) {
		status = st
		pc = ParsePortCounters(data)
	}), 0)
	s.Run()
	if status != StatusOK {
		t.Fatalf("PortCounters Get status %#x", status)
	}
	if pc != (fabric.PortCounters{}) {
		t.Fatalf("clean port reported %+v", pc)
	}

	// Out-of-range port: rejected, not a crash.
	bad := make([]byte, smpDataSize)
	bad[0] = 99
	status = 0xEE
	disc.Reset()
	disc.Query(MethodGet, AttrPortCounters, paths[5], bad, QueryFunc(func(st byte, _ []byte) { status = st }), 0)
	s.Run()
	if status == StatusOK || status == 0xEE {
		t.Fatalf("out-of-range port answered with status %#x", status)
	}

	// Trap rearm is a Set: it must be M_Key-guarded like every other
	// mutation, or an attacker could rearm (and so spam) traps.
	rogue := NewDiscoverer(s, mesh.HCA(0), keys.MKey(0xBAD), 25*sim.Microsecond)
	status = 0xEE
	rogue.Query(MethodSet, AttrPortCounters, paths[5], req, QueryFunc(func(st byte, _ []byte) { status = st }), 0)
	s.Run()
	if status != smpStatusBadMKey {
		t.Fatalf("rogue trap rearm got status %#x, want BadMKey", status)
	}
	if n := mesh.Switches[5].Counters.Value(fabric.SwSMPMKeyViolations); n == 0 {
		t.Fatal("M_Key violation not counted")
	}
}

// TestPerfMgrQuarantinesAndReadmits drives the full loop: a gray link
// under heavy BER is fenced (with routes steered around it), and once
// the link is clean — score decayed to QuarantineScore/8 — and its
// probation of four sweeps served, it returns to service.
func TestPerfMgrQuarantinesAndReadmits(t *testing.T) {
	s, mesh := perfTestMesh(t)
	pm := NewPerfMgr(s, mesh, perfDisc(s, mesh), nil, PerfConfig{
		SweepPeriod:     50 * sim.Microsecond,
		Alpha:           0.5,
		QuarantineScore: 1,
	})
	pm.Start()

	target := topology.LinkID{Switch: 5, Port: topology.PortEast}
	mesh.Switches[5].SetPortBER(topology.PortEast, 1e-3)
	stopTraffic := s.Every(5*sim.Microsecond, func() { sendAcross(mesh, 5, 6) })
	s.ScheduleAt(400*sim.Microsecond, func() {
		mesh.Switches[5].ClearPortBER(topology.PortEast)
	})

	// Mid-quarantine check: the fenced link must be off every route.
	s.ScheduleAt(300*sim.Microsecond, func() {
		if !pm.Quarantined()[target] {
			t.Error("target not quarantined by 300us")
		}
		p, ok := mesh.Switches[5].Route(topology.LIDOf(6))
		if !ok || p == topology.PortEast {
			t.Errorf("switch 5 still routes node 6 east during quarantine (port %d, ok %v)", p, ok)
		}
		edges := pm.QuarantinedEdges()
		if !edges[mesh.Switches[5].GUID()][topology.PortEast] ||
			!edges[mesh.Switches[6].GUID()][topology.PortWest] {
			t.Error("QuarantinedEdges missing a fenced half")
		}
	})

	s.RunUntil(1500 * sim.Microsecond)
	stopTraffic()
	pm.Stop()

	if len(pm.Events) < 2 {
		t.Fatalf("got %d health events, want quarantine + readmit", len(pm.Events))
	}
	first := pm.Events[0]
	if !first.Quarantined || first.Link != target {
		t.Fatalf("first event %+v, want quarantine of %v", first, target)
	}
	var readmitted bool
	for _, ev := range pm.Events {
		if !ev.Quarantined && ev.Link == target {
			readmitted = true
		}
	}
	if !readmitted {
		t.Fatal("link never readmitted after the BER cleared")
	}
	if pm.Quarantined()[target] {
		t.Fatal("target still fenced at end of run")
	}
	if p, ok := mesh.Switches[5].Route(topology.LIDOf(6)); !ok || p != topology.PortEast {
		t.Fatalf("route not restored after readmit (port %d, ok %v)", p, ok)
	}
	if pm.Counters.Value(PMHealthSweepMADs) == 0 {
		t.Fatal("no sweep MADs counted")
	}
}

// TestPerfMgrTrapFastPath arms threshold traps with a deliberately slow
// sweep: the trap upcall must fence the link long before the first
// periodic sweep would have noticed.
func TestPerfMgrTrapFastPath(t *testing.T) {
	s, mesh := perfTestMesh(t)
	sweep := 800 * sim.Microsecond
	pm := NewPerfMgr(s, mesh, perfDisc(s, mesh), nil, PerfConfig{
		SweepPeriod:     sweep,
		Alpha:           0.5,
		QuarantineScore: 1,
		TrapThreshold:   5,
	})
	pm.Start()

	target := topology.LinkID{Switch: 5, Port: topology.PortEast}
	mesh.Switches[5].SetPortBER(topology.PortEast, 1e-3)
	stopTraffic := s.Every(5*sim.Microsecond, func() { sendAcross(mesh, 5, 6) })

	s.RunUntil(sweep / 2)
	stopTraffic()
	pm.Stop()

	if len(pm.Events) == 0 || !pm.Events[0].Quarantined || pm.Events[0].Link != target {
		t.Fatalf("trap fast path did not quarantine before the first sweep (events %+v)", pm.Events)
	}
	if pm.Events[0].At >= sweep {
		t.Fatalf("quarantine at %v, not ahead of the first sweep at %v", pm.Events[0].At, sweep)
	}
	if pm.Counters.Value(PMHealthTrapMADs) == 0 {
		t.Fatal("no trap notifications counted")
	}
	if mesh.Switches[5].Counters.Value(fabric.SwHealthTraps) == 0 {
		t.Fatal("switch never fired its threshold trap")
	}
}

// Flap damping must grow the hold-down exponentially to its cap of 16
// probations; undamped every quarantine serves flat probation, four
// sweeps.
func TestHoldForDamping(t *testing.T) {
	s, mesh := perfTestMesh(t)
	base := PerfConfig{
		SweepPeriod:     25 * sim.Microsecond,
		Alpha:           0.5,
		QuarantineScore: 1,
	}
	undamped := NewPerfMgr(s, mesh, perfDisc(s, mesh), nil, base)
	damped := base
	damped.Damping = true
	dpm := NewPerfMgr(s, mesh, perfDisc(s, mesh), nil, damped)

	for flaps, want := range map[int]sim.Time{
		1: 100 * sim.Microsecond,
		2: 200 * sim.Microsecond,
		3: 400 * sim.Microsecond,
		5: 1600 * sim.Microsecond,
		6: 1600 * sim.Microsecond, // capped
		9: 1600 * sim.Microsecond,
	} {
		if got := dpm.holdFor(flaps); got != want {
			t.Errorf("damped holdFor(%d) = %v, want %v", flaps, got, want)
		}
		if got := undamped.holdFor(flaps); got != 100*sim.Microsecond {
			t.Errorf("undamped holdFor(%d) = %v, want flat probation", flaps, got)
		}
	}
}

// TestPerfMgrAdopt simulates the failover handoff: a promoted master's
// PerfMgr adopts the synced quarantine state and must keep the link
// fenced — routes steered around it — without fresh evidence.
func TestPerfMgrAdopt(t *testing.T) {
	s, mesh := perfTestMesh(t)
	pm := NewPerfMgr(s, mesh, perfDisc(s, mesh), nil, PerfConfig{
		SweepPeriod:     50 * sim.Microsecond,
		Alpha:           0.5,
		QuarantineScore: 1,
		Damping:         true,
	})
	target := topology.LinkID{Switch: 5, Port: topology.PortEast}
	entries := []HealthEntry{{Link: target, Flaps: 2, HoldUntil: 300 * sim.Microsecond}}
	pm.Adopt(entries)

	if !pm.Quarantined()[target] {
		t.Fatal("adopted link not fenced")
	}
	if p, ok := mesh.Switches[5].Route(topology.LIDOf(6)); !ok || p == topology.PortEast {
		t.Fatalf("adopted quarantine did not reroute (port %d, ok %v)", p, ok)
	}
	// The re-encoded blob must carry the inherited flap count so a
	// second failover still damps.
	got, err := ParseHealthBlob(EncodeHealthBlob(pm.snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Flaps != 2 || got[0].Link != target {
		t.Fatalf("snapshot after adopt: %+v", got)
	}
	pm.Start()
	// Clean link, hold served at 300us, score floor decays: the adopted
	// quarantine must eventually lift on fresh evidence.
	s.RunUntil(1200 * sim.Microsecond)
	pm.Stop()
	if pm.Quarantined()[target] {
		t.Fatal("clean adopted link never readmitted")
	}
}

// TestResweeperRespectsQuarantine is the coherence regression: a heal
// sweep whose probes still see the physically-up fenced link must not
// program routes back over it — neither on the first sweep after the
// fence nor on any later one (the double-programming race).
func TestResweeperRespectsQuarantine(t *testing.T) {
	s, mesh := perfTestMesh(t)
	disc := perfDisc(s, mesh)
	r := NewResweeper(s, disc, 200*sim.Microsecond)
	r.PrimeStatic(mesh)
	fenced := map[uint64]map[int]bool{
		mesh.Switches[5].GUID(): {topology.PortEast: true},
		mesh.Switches[6].GUID(): {topology.PortWest: true},
	}
	r.Quarantined = func() map[uint64]map[int]bool { return fenced }
	r.Start()

	check := func(when string) {
		p, ok := mesh.Switches[5].Route(topology.LIDOf(6))
		if !ok {
			t.Fatalf("%s: node 6 unroutable from switch 5", when)
		}
		if p == topology.PortEast {
			t.Fatalf("%s: resweeper programmed a route over the fenced link", when)
		}
	}
	s.RunUntil(400 * sim.Microsecond) // first sweep completed
	check("after first sweep")
	if r.Counters.Value(ResweepReroutes) == 0 {
		t.Fatal("resweeper never rerouted around the fenced link")
	}
	reroutes := r.Counters.Value(ResweepReroutes)
	s.RunUntil(1200 * sim.Microsecond) // several more sweeps
	check("after later sweeps")
	// Steady state: the fence is stable, so later sweeps must not flap
	// routes (each flap would be a reroute).
	if got := r.Counters.Value(ResweepReroutes); got != reroutes {
		t.Fatalf("route flapping under a stable fence: %d reroutes, want %d", got, reroutes)
	}
	r.Stop()
}

// A Get of PortCounters must not require the M_Key (reads are cheap and
// harmless) but must leave the counters untouched — reading is not
// resetting.
func TestPortCountersReadDoesNotReset(t *testing.T) {
	s, mesh := perfTestMesh(t)
	mesh.Switches[5].SetPortBER(topology.PortEast, 1e-3)
	for i := 0; i < 20; i++ {
		i := i
		s.Schedule(sim.Time(i)*5*sim.Microsecond, func() { sendAcross(mesh, 5, 6) })
	}
	s.Run()
	before := mesh.Switches[5].PortHealth(topology.PortEast)
	if before.ErrorSum() == 0 {
		t.Fatal("BER produced no errors")
	}

	paths := SwitchPaths(mesh, 0)
	disc := perfDisc(s, mesh)
	req := make([]byte, smpDataSize)
	req[0] = byte(topology.PortEast)
	var got fabric.PortCounters
	disc.Query(MethodGet, AttrPortCounters, paths[5], req, QueryFunc(func(st byte, data []byte) {
		if st == StatusOK {
			got = ParsePortCounters(data)
		}
	}), 0)
	s.Run()
	if got.SymbolErrors != before.SymbolErrors {
		t.Fatalf("MAD read %d symbol errors, port holds %d", got.SymbolErrors, before.SymbolErrors)
	}
	if after := mesh.Switches[5].PortHealth(topology.PortEast); after != before {
		t.Fatalf("read mutated the counters: %+v -> %+v", before, after)
	}
}

func TestSwitchPaths(t *testing.T) {
	s := sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 3, 3)
	paths := SwitchPaths(mesh, 4) // SM at the centre of a 3x3 mesh
	if len(paths) != 9 {
		t.Fatalf("got paths for %d switches, want 9", len(paths))
	}
	if len(paths[4]) != 0 {
		t.Errorf("root path = %v, want empty", paths[4])
	}
	// Corner switch 0 is two hops from the centre.
	if len(paths[0]) != 2 {
		t.Errorf("path to corner = %v, want 2 hops", paths[0])
	}
	// Every path must land on its target when walked over the mesh edges.
	g := map[uint64][]uint64{}
	for _, row := range mesh.EdgeGUIDs() {
		g[row.GUID] = row.Peers
	}
	for i, path := range paths {
		cur := mesh.Switches[4].GUID()
		for _, p := range path {
			var nbr uint64
			if peers := g[cur]; int(p) < len(peers) {
				nbr = peers[p]
			}
			if nbr == 0 {
				t.Fatalf("path to switch %d leaves the mesh at port %d", i, p)
			}
			cur = nbr
		}
		if cur != mesh.Switches[i].GUID() {
			t.Errorf("path to switch %d lands on the wrong switch", i)
		}
	}
}

// TestSwitchPathsMatchNextHops holds the one-BFS SwitchPaths to the
// paths of walking topology.NextHops hop by hop, its all-pairs oracle,
// from every root of 2x2, 4x4 and 6x6 meshes, whole and with random
// link subsets removed: an unreachable switch gets nil, the root an
// empty, non-nil path.
func TestSwitchPathsMatchNextHops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unreached := 0
	for _, n := range []int{2, 4, 6} {
		mesh := topology.NewMesh(sim.New(), fabric.DefaultParams(), n, n)
		for trial := 0; trial < 8; trial++ {
			dead := map[topology.LinkID]bool{}
			if trial > 0 {
				for i := range mesh.Switches {
					for _, p := range []int{topology.PortEast, topology.PortSouth} {
						if rng.Intn(4) == 0 {
							dead[topology.LinkID{Switch: i, Port: p}] = true
						}
					}
				}
			}
			alive := func(sw, port int) (int, bool) {
				isHCA, peer, peerPort, ok := mesh.LinkPeer(sw, port)
				if !ok || isHCA || dead[topology.LinkID{Switch: sw, Port: port}] || dead[topology.LinkID{Switch: peer, Port: peerPort}] {
					return 0, false
				}
				return peer, true
			}
			g := topology.SwitchGraph{}
			for i, sw := range mesh.Switches {
				edges := map[int]uint64{}
				for p := 0; p < sw.NumPorts(); p++ {
					if peer, ok := alive(i, p); ok {
						edges[p] = mesh.Switches[peer].GUID()
					}
				}
				g[sw.GUID()] = edges
			}
			next := topology.NextHops(g)
			for root := range mesh.Switches {
				got := switchPaths(len(mesh.Switches), root, alive)
				for i, sw := range mesh.Switches {
					want := []byte{}
					for cur := mesh.Switches[root].GUID(); cur != sw.GUID(); {
						p, ok := next[cur][sw.GUID()]
						if !ok {
							want = nil
							break
						}
						want = append(want, byte(p))
						cur = g[cur][p]
					}
					if want == nil {
						unreached++
					}
					if (got[i] == nil) != (want == nil) || !bytes.Equal(got[i], want) {
						t.Fatalf("%dx%d trial %d, root %d, switch %d: path %v, NextHops walk %v", n, n, trial, root, i, got[i], want)
					}
				}
			}
			if trial == 0 {
				paths := SwitchPaths(mesh, 0)
				for i := range paths {
					if want := switchPaths(len(mesh.Switches), 0, alive); !bytes.Equal(paths[i], want[i]) {
						t.Fatalf("%dx%d: SwitchPaths differs from the whole-mesh BFS at switch %d", n, n, i)
					}
				}
			}
		}
	}
	if unreached == 0 {
		t.Fatal("no removed subset cut a switch off: the nil case went untested")
	}
}
