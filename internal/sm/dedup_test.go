package sm

import (
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// dedupSweep runs a 4x4 bring-up in which a transit switch delays the
// first SMP it handles well past the probe deadline. The discoverer
// retransmits under the same TID, the retransmit is answered, and then
// the delayed original finally reaches the same responder — a duplicate
// (requester LID, TID) request. With dedup the responder drops it;
// without, it executes and answers twice.
func dedupSweep(t *testing.T, dedup bool) (*topology.Mesh, *DiscoveredTopology) {
	t.Helper()
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 4, 4)
	swAgents := AttachSwitchAgents(mesh, discMKey)
	for _, a := range swAgents {
		a.DedupTIDs = dedup
	}
	for _, hca := range mesh.HCAs {
		AttachNodeAgent(hca, discMKey).DedupTIDs = dedup
	}
	var seen int
	mesh.Switches[5].SetMADTap(func(sw *fabric.Switch, d *fabric.Delivery) (bool, sim.Time) {
		seen++
		if seen == 1 {
			// Past the 50us probe deadline, so a retransmit fires; short
			// enough that the original still lands mid-sweep.
			return false, 120 * sim.Microsecond
		}
		return false, 0
	})
	disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
	disc.MaxRetries = 2
	disc.SetTimeoutMult = 10
	var topo *DiscoveredTopology
	disc.Discover(func(tp *DiscoveredTopology) { topo = tp })
	s.Run()
	if topo == nil {
		t.Fatal("discovery never completed")
	}
	if topo.Retries == 0 {
		t.Fatal("delayed SMP triggered no retransmit — duplicate never created")
	}
	if len(topo.Switches) != 16 || len(topo.CAs) != 16 {
		t.Fatalf("sweep found %d switches, %d CAs", len(topo.Switches), len(topo.CAs))
	}
	return mesh, topo
}

// dupRequests sums the responder-side duplicate-drop counter fabric-wide.
func dupRequests(mesh *topology.Mesh) uint64 {
	var n uint64
	for _, sw := range mesh.Switches {
		n += sw.Counters.Value(fabric.SwSMPDupRequests)
	}
	for _, hca := range mesh.HCAs {
		n += hca.Counters.Value(fabric.HCASMPDupRequests)
	}
	return n
}

// TestDedupTIDsSuppressesDuplicateSMPs: with duplicate-TID hygiene on,
// the delayed original is dropped at the responder (at-most-once
// execution) and the requester never sees a second response; with it
// off, the same scenario re-executes the request and the extra answer
// surfaces at the discoverer as a duplicate or stray response.
func TestDedupTIDsSuppressesDuplicateSMPs(t *testing.T) {
	doubleAnswers := func(mesh *topology.Mesh) uint64 {
		c := mesh.HCA(0).Counters
		return c.Get("smp_dup_responses") + c.Get("smp_late_responses")
	}

	mesh, _ := dedupSweep(t, true)
	if n := dupRequests(mesh); n == 0 {
		t.Fatal("duplicate request never dropped with dedup on")
	}
	if n := doubleAnswers(mesh); n != 0 {
		t.Fatalf("%d duplicate responses reached the discoverer despite dedup", n)
	}

	mesh, _ = dedupSweep(t, false)
	if n := dupRequests(mesh); n != 0 {
		t.Fatalf("smp_dup_requests = %d with dedup off", n)
	}
	if n := doubleAnswers(mesh); n == 0 {
		t.Fatal("duplicate request was not re-answered with dedup off; delay injection broken")
	}
}

// The duplicate-detection window is a fixed ring: a TID inside the last
// tidSetCap adds is a duplicate, one evicted from it is fresh again, and
// once the window has filled an add allocates nothing — ten windows of
// fresh TIDs included.
func TestTIDSetWindow(t *testing.T) {
	s := newTIDSet()
	key := func(i int) tidKey { return tidKey{lid: packet.LID(1 + i%3), txID: uint32(i)} }
	for i := 0; i < tidSetCap; i++ {
		if s.add(key(i)) {
			t.Fatalf("fresh TID %d reported as a duplicate", i)
		}
	}
	for i := 0; i < tidSetCap; i++ {
		if !s.add(key(i)) {
			t.Fatalf("TID %d inside the window not reported as a duplicate", i)
		}
	}
	if s.add(key(tidSetCap)) {
		t.Fatal("fresh TID reported as a duplicate")
	}
	if s.add(key(0)) {
		t.Fatal("TID evicted from the window still reported as a duplicate")
	}
	if !s.add(key(2)) {
		t.Fatal("TID 2, still inside the window, not reported as a duplicate")
	}
	if len(s.seen) != tidSetCap {
		t.Fatalf("the index holds %d keys, want the window's %d", len(s.seen), tidSetCap)
	}

	next := 2 * tidSetCap
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 10*tidSetCap; i++ {
			s.add(key(next))
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per 10 windows of adds, want 0", allocs)
	}
}
