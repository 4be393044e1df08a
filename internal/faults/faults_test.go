package faults

import (
	"strings"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

func mkPkt(src, dst packet.LID) *packet.Packet {
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: src, DLID: dst},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1},
		DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
		Payload: make([]byte, 64),
	}
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	return p
}

func TestChaosDeterministic(t *testing.T) {
	a := mustChaos(t, 42, 4, 4, 3, 100*sim.Microsecond, sim.Millisecond)
	b := mustChaos(t, 42, 4, 4, 3, 100*sim.Microsecond, sim.Millisecond)
	if len(a.Links) != 3 || len(b.Links) != 3 {
		t.Fatalf("drew %d and %d kills, want 3", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("kill %d differs across identical seeds: %+v vs %+v", i, a.Links[i], b.Links[i])
		}
	}
	c := mustChaos(t, 43, 4, 4, 3, 100*sim.Microsecond, sim.Millisecond)
	same := true
	for i := range a.Links {
		if a.Links[i] != c.Links[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical plans")
	}
}

// Chaos kills must leave the switch graph connected with every killed
// link removed simultaneously, stay within the schedule window, never
// touch an HCA uplink, and outages must resolve before the window ends
// plus its own length (UpAt > DownAt always).
func TestChaosPlanInvariants(t *testing.T) {
	from, until := 200*sim.Microsecond, sim.Millisecond
	for seed := int64(0); seed < 30; seed++ {
		for _, kills := range []int{1, 2, 4} {
			p := mustChaos(t, seed, 4, 4, kills, from, until)
			if len(p.Links) != kills {
				t.Fatalf("seed %d: %d kills, want %d", seed, len(p.Links), kills)
			}
			if !meshConnectedWithout(4, 4, linksOf(p)) {
				t.Fatalf("seed %d kills %d: plan partitions the mesh", seed, kills)
			}
			for _, lk := range p.Links {
				if lk.Link.Port == topology.PortHCA {
					t.Fatalf("seed %d: killed an HCA uplink", seed)
				}
				if lk.DownAt < from || lk.DownAt >= until {
					t.Fatalf("seed %d: down at %v outside [%v, %v)", seed, lk.DownAt, from, until)
				}
				if lk.UpAt <= lk.DownAt {
					t.Fatalf("seed %d: outage %v -> %v never ends", seed, lk.DownAt, lk.UpAt)
				}
				// Outages span [window/2, 3/4 window]: long enough that a
				// periodic re-sweep samples the fabric mid-outage.
				window := until - from
				if out := lk.UpAt - lk.DownAt; out < window/2 || out > 3*window/4 {
					t.Fatalf("seed %d: outage length %v outside [%v, %v]", seed, out, window/2, 3*window/4)
				}
			}
		}
	}
}

func linksOf(p *Plan) []topology.LinkID {
	ids := make([]topology.LinkID, len(p.Links))
	for i, lk := range p.Links {
		ids[i] = lk.Link
	}
	return ids
}

func mustChaos(t *testing.T, seed int64, w, h, kills int, from, until sim.Time) *Plan {
	t.Helper()
	p, err := Chaos(seed, w, h, kills, from, until)
	if err != nil {
		t.Fatalf("Chaos(seed %d, %dx%d, %d kills): %v", seed, w, h, kills, err)
	}
	return p
}

func TestChaosZeroKills(t *testing.T) {
	p := mustChaos(t, 7, 4, 4, 0, 0, sim.Millisecond)
	if len(p.Links) != 0 || len(p.BER) != 0 {
		t.Fatalf("empty chaos plan not empty: %+v", p)
	}
}

// A kill count the mesh cannot honour is an error, not a plan with some
// other count or one that partitions the fabric: a 4x4 mesh has 24
// inter-switch links, and its 16 switches stay connected only while at
// least 15 of them survive.
func TestChaosRejectsUnhonourableCounts(t *testing.T) {
	for _, tc := range []struct {
		kills int
		want  string
	}{
		{-1, "-1 link kills"},
		{25, "25 link kills in a 4x4 mesh of 24"},
		{100, "100 link kills in a 4x4 mesh of 24"},
		{10, "no draw of 10 link kills"},
		{24, "no draw of 24 link kills"},
	} {
		p, err := Chaos(1, 4, 4, tc.kills, 0, sim.Millisecond)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d kills: plan %+v, err %v; want an error mentioning %q", tc.kills, p, err, tc.want)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	bad := []*Plan{
		{Links: []LinkKill{{Link: topology.LinkID{Switch: 9, Port: topology.PortEast}}}},
		{Links: []LinkKill{{Link: topology.LinkID{Switch: 1, Port: topology.PortEast}}}}, // east boundary of a 2x2
		{BER: []BERBurst{{Rate: 1.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(m); err == nil {
			t.Fatalf("bad plan %d validated", i)
		}
	}
	good := &Plan{
		Links: []LinkKill{{Link: topology.LinkID{Switch: 0, Port: topology.PortEast}, DownAt: 1, UpAt: 2}},
		BER:   []BERBurst{{Rate: 1e-6}},
	}
	if err := good.Validate(m); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

// TestPartitionCutGraph checks the edge-cut helper at the graph level:
// for each bisection of a 4×4 mesh (and one irregular island) the cut
// must contain exactly the crossing edges, removing it must disconnect
// the mesh, and both islands must stay internally connected with the
// cut removed.
func TestPartitionCutGraph(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 4, 4)

	islands := [][]int{
		Bisect(4, 4, 1).IslandA,
		Bisect(4, 4, 2).IslandA,
		Bisect(4, 4, 3).IslandA,
		{0, 1, 4, 5}, // top-left quadrant
	}
	for _, islandA := range islands {
		pt := Partition{IslandA: islandA, DownAt: 1, UpAt: 2}
		plan := &Plan{Partitions: []Partition{pt}}
		if err := plan.Validate(m); err != nil {
			t.Fatalf("island %v rejected: %v", islandA, err)
		}
		cut := pt.CutLinks(4, 4)
		inCut := make(map[topology.LinkID]bool, len(cut))
		for _, l := range cut {
			inCut[l] = true
		}
		inA := make(map[int]bool, len(islandA))
		for _, i := range islandA {
			inA[i] = true
		}
		// Enumerate every inter-switch edge: crossing edges must be in
		// the cut, internal edges must not.
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				i := y*4 + x
				check := func(j int, port int) {
					id := topology.LinkID{Switch: i, Port: port}
					if crossing := inA[i] != inA[j]; crossing != inCut[id] {
						t.Fatalf("island %v: edge %v crossing=%v inCut=%v", islandA, id, crossing, inCut[id])
					}
				}
				if x+1 < 4 {
					check(i+1, topology.PortEast)
				}
				if y+1 < 4 {
					check(i+4, topology.PortSouth)
				}
			}
		}
		if meshConnectedWithout(4, 4, cut) {
			t.Fatalf("island %v: cut does not disconnect the mesh", islandA)
		}
		if !islandConnected(4, 4, inA, true) || !islandConnected(4, 4, inA, false) {
			t.Fatalf("island %v: a side is not internally connected", islandA)
		}
	}

	bad := []*Plan{
		{Partitions: []Partition{{IslandA: nil}}},                                  // empty side
		{Partitions: []Partition{{IslandA: Bisect(4, 4, 4).IslandA}}},              // full side
		{Partitions: []Partition{{IslandA: []int{0, 16}}}},                         // out of range
		{Partitions: []Partition{{IslandA: []int{0, 0}}}},                          // duplicate
		{Partitions: []Partition{{IslandA: []int{0, 15}}}},                         // disconnected island
		{Partitions: []Partition{{IslandA: []int{1, 2}, DownAt: -sim.Nanosecond}}}, // negative time
		{Partitions: []Partition{{IslandA: []int{1, 2}, DownAt: 2, UpAt: 1}}},      // heals before it splits
	}
	for i, p := range bad {
		if err := p.Validate(m); err == nil {
			t.Fatalf("bad partition plan %d validated", i)
		}
	}
}

// TestPartitionInstallHeal drives a live bisection end to end on a 2×2
// mesh: cross-island traffic blackholes while the partition is active,
// intra-island traffic keeps flowing (the island stays internally
// connected), and after the heal cross-island delivery resumes — full
// connectivity restored.
func TestPartitionInstallHeal(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	pt := Bisect(2, 2, 1) // island A: column 0 (switches 0, 2)
	pt.DownAt = 10 * sim.Microsecond
	pt.UpAt = 40 * sim.Microsecond
	if err := Install(s, m, fabric.DefaultParams(), &Plan{Partitions: []Partition{pt}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		m.HCA(i).PKeyTable.Add(0x8001)
	}
	got := make(map[int]int)
	for i := 0; i < 4; i++ {
		i := i
		m.HCA(i).OnDeliver = func(d *fabric.Delivery) { got[i]++ }
	}
	send := func(src, dst int) func() {
		return func() {
			m.HCA(src).Send(&fabric.Delivery{
				Pkt:   mkPkt(topology.LIDOf(src), topology.LIDOf(dst)),
				Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort,
			})
		}
	}
	send(0, 1)()                                 // pre-partition: crosses, delivered
	s.ScheduleAt(20*sim.Microsecond, send(0, 1)) // mid-partition: blackholed
	s.ScheduleAt(20*sim.Microsecond, send(0, 2)) // mid-partition, intra-island: delivered
	s.ScheduleAt(50*sim.Microsecond, send(0, 1)) // post-heal: delivered
	s.Run()
	if got[1] != 2 {
		t.Fatalf("cross-island deliveries %d, want 2 (pre + post-heal)", got[1])
	}
	if got[2] != 1 {
		t.Fatalf("intra-island delivery %d, want 1", got[2])
	}
	if n := Blackholed(m); n != 1 {
		t.Fatalf("blackholed %d, want exactly the mid-partition crossing packet", n)
	}
}

// Installing a plan and letting it fire: a link kill blackholes traffic
// queued across it and the count is visible through Blackholed.
func TestInstallLinkKillBlackholes(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	p := &Plan{Links: []LinkKill{{
		Link:   topology.LinkID{Switch: 0, Port: topology.PortEast},
		DownAt: 10 * sim.Microsecond,
	}}}
	if err := Install(s, m, fabric.DefaultParams(), p); err != nil {
		t.Fatal(err)
	}
	// Traffic from node 0 to node 1 crosses the doomed link; send one
	// packet before the kill (delivered) and some after (blackholed).
	m.HCA(0).PKeyTable.Add(0x8001)
	m.HCA(1).PKeyTable.Add(0x8001)
	delivered := 0
	m.HCA(1).OnDeliver = func(d *fabric.Delivery) { delivered++ }
	send := func() {
		m.HCA(0).Send(&fabric.Delivery{
			Pkt:   mkPkt(topology.LIDOf(0), topology.LIDOf(1)),
			Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort,
		})
	}
	send()
	s.ScheduleAt(20*sim.Microsecond, send)
	s.ScheduleAt(30*sim.Microsecond, send)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d, want only the pre-kill packet", delivered)
	}
	if n := Blackholed(m); n != 2 {
		t.Fatalf("blackholed %d, want 2", n)
	}
}

// Validate must reject malformed per-link BER entries: out-of-range
// switches, unconnected ports, rates outside [0,1), negative start
// times and empty windows.
func TestValidateRejectsBadLinkBER(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	east := topology.LinkID{Switch: 0, Port: topology.PortEast}
	bad := []*Plan{
		{LinkBER: []LinkBER{{Link: topology.LinkID{Switch: 9, Port: topology.PortEast}, Rate: 1e-5}}},
		{LinkBER: []LinkBER{{Link: topology.LinkID{Switch: 1, Port: topology.PortEast}, Rate: 1e-5}}}, // east boundary of a 2x2
		{LinkBER: []LinkBER{{Link: east, Rate: 1.5}}},
		{LinkBER: []LinkBER{{Link: east, Rate: -0.1}}},
		{LinkBER: []LinkBER{{Link: east, Rate: 1e-5, From: -sim.Microsecond}}},
		{LinkBER: []LinkBER{{Link: east, Rate: 1e-5, From: 20 * sim.Microsecond, Until: 10 * sim.Microsecond}}}, // empty window
	}
	for i, p := range bad {
		if err := p.Validate(m); err == nil {
			t.Errorf("bad link-BER plan %d validated", i)
		}
	}
	good := &Plan{LinkBER: []LinkBER{
		{Link: east, Rate: 1e-5, From: 10 * sim.Microsecond, Until: 20 * sim.Microsecond},
		{Link: topology.LinkID{Switch: 3, Port: topology.PortHCA}, Rate: 1e-6}, // HCA uplink is a valid target
	}}
	if err := good.Validate(m); err != nil {
		t.Fatalf("good link-BER plan rejected: %v", err)
	}
}

// OscillatingBER must emit clean half-period on-windows covering
// exactly [from, until), and degenerate inputs must produce no windows.
func TestOscillatingBERWindows(t *testing.T) {
	link := topology.LinkID{Switch: 0, Port: topology.PortEast}
	from, until := 100*sim.Microsecond, 1000*sim.Microsecond
	period := 240 * sim.Microsecond
	wins := OscillatingBER(link, 1e-4, period, from, until)
	if len(wins) == 0 {
		t.Fatal("no windows emitted")
	}
	for i, w := range wins {
		if w.Link != link || w.Rate != 1e-4 {
			t.Fatalf("window %d carries wrong link/rate: %+v", i, w)
		}
		if w.From < from || w.Until > until || w.Until <= w.From {
			t.Fatalf("window %d outside schedule: [%v,%v)", i, w.From, w.Until)
		}
		if i > 0 && w.From != wins[i-1].From+period {
			t.Fatalf("window %d not one period after its predecessor", i)
		}
		if w.Until-w.From > period/2 {
			t.Fatalf("window %d on-phase longer than half a period", i)
		}
	}
	if OscillatingBER(link, 1e-4, 0, from, until) != nil {
		t.Fatal("zero period emitted windows")
	}
	if OscillatingBER(link, 1e-4, period, until, from) != nil {
		t.Fatal("inverted schedule emitted windows")
	}
	// The generated plan must validate as-is.
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	p := &Plan{LinkBER: wins}
	if err := p.Validate(m); err != nil {
		t.Fatalf("oscillating plan rejected: %v", err)
	}
}

// TestInstallLinkBERWindow proves a per-link BER burst corrupts traffic
// crossing the named link only inside its window, counts the strikes in
// the port's saturating health counters, and leaves other links clean.
func TestInstallLinkBERWindow(t *testing.T) {
	s := sim.New()
	params := fabric.DefaultParams()
	m := topology.NewMesh(s, params, 2, 2)
	p := &Plan{LinkBER: []LinkBER{{
		Link: topology.LinkID{Switch: 0, Port: topology.PortEast},
		// At 8 kbit per packet this rate makes corruption a near
		// certainty for every packet in the window.
		Rate: 1e-3,
		From: 10 * sim.Microsecond, Until: 100 * sim.Microsecond,
	}}}
	if err := Install(s, m, params, p); err != nil {
		t.Fatal(err)
	}
	m.HCA(0).PKeyTable.Add(0x8001)
	m.HCA(1).PKeyTable.Add(0x8001)
	delivered := 0
	m.HCA(1).OnDeliver = func(d *fabric.Delivery) { delivered++ }
	send := func() {
		m.HCA(0).Send(&fabric.Delivery{
			Pkt:   mkPkt(topology.LIDOf(0), topology.LIDOf(1)),
			Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort,
		})
	}
	// One packet before the window, a burst inside it, one after.
	send()
	for i := 0; i < 10; i++ {
		s.ScheduleAt(sim.Time(20+5*i)*sim.Microsecond, send)
	}
	s.ScheduleAt(200*sim.Microsecond, send)
	s.Run()

	struck := m.Switches[0].PortHealth(topology.PortEast)
	if struck.SymbolErrors == 0 {
		t.Fatal("no symbol errors recorded on the degraded half")
	}
	rejected := m.Switches[1].Counters.Value(fabric.SwVCRCDrops) + m.HCA(1).Counters.Value(fabric.HCAVCRCDrops) + m.HCA(1).Counters.Value(fabric.HCAICRCDrops)
	if rejected == 0 {
		t.Fatal("no CRC rejects downstream of the degraded link")
	}
	// The pre- and post-window packets crossed a clean link.
	if delivered == 0 {
		t.Fatal("window edges corrupted: nothing delivered")
	}
	// Unrelated links stay pristine.
	if pc := m.Switches[0].PortHealth(topology.PortSouth); pc != (fabric.PortCounters{}) {
		t.Fatalf("unrelated port accumulated counters: %+v", pc)
	}
}
