package sm

import (
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

const discMKey = keys.MKey(0x00D15C0FEE)

// bringUp builds a blank WxH mesh, attaches agents, runs the in-band
// sweep from node 0, and returns everything once the fabric is
// configured.
func bringUp(t *testing.T, w, h int) (*sim.Simulator, *topology.Mesh, *DiscoveredTopology) {
	t.Helper()
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), w, h)
	AttachSwitchAgents(mesh, discMKey)
	for _, hca := range mesh.HCAs {
		AttachNodeAgent(hca, discMKey)
	}
	disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
	var topo *DiscoveredTopology
	disc.Discover(func(tp *DiscoveredTopology) { topo = tp })
	s.Run()
	if topo == nil {
		t.Fatal("discovery never completed")
	}
	return s, mesh, topo
}

func TestDiscoveryFindsEverything(t *testing.T) {
	_, mesh, topo := bringUp(t, 4, 4)
	if len(topo.Switches) != 16 {
		t.Fatalf("discovered %d switches, want 16", len(topo.Switches))
	}
	if len(topo.CAs) != 16 {
		t.Fatalf("discovered %d CAs, want 16", len(topo.CAs))
	}
	// Every mesh GUID must appear exactly once.
	seen := map[uint64]bool{}
	for _, n := range append(append([]*DiscoveredNode{}, topo.Switches...), topo.CAs...) {
		if seen[n.GUID] {
			t.Fatalf("GUID %#x discovered twice", n.GUID)
		}
		seen[n.GUID] = true
	}
	for _, sw := range mesh.Switches {
		if !seen[sw.GUID()] {
			t.Fatalf("switch %s not discovered", sw.Name())
		}
	}
	for _, hca := range mesh.HCAs {
		if !seen[hca.GUID()] {
			t.Fatalf("%s not discovered", hca.Name())
		}
	}
	// Dead-port probes time out (edge switches have unconnected ports).
	if topo.Timeouts == 0 {
		t.Fatal("no timeouts: dead-port detection untested")
	}
	if topo.Probes < 32 {
		t.Fatalf("only %d probes", topo.Probes)
	}
}

func TestDiscoveryAssignsUniqueLIDs(t *testing.T) {
	_, mesh, topo := bringUp(t, 3, 3)
	lids := map[packet.LID]bool{}
	for _, hca := range mesh.HCAs {
		lid := hca.LID()
		if lid == 0 {
			t.Fatalf("%s still has no LID", hca.Name())
		}
		if lids[lid] {
			t.Fatalf("duplicate LID %d", lid)
		}
		lids[lid] = true
	}
	if len(topo.CAs) != 9 {
		t.Fatalf("CAs = %d", len(topo.CAs))
	}
}

// The decisive test: after in-band bring-up, ordinary LID-routed data
// traffic flows between every pair of nodes.
func TestDiscoveredFabricCarriesData(t *testing.T) {
	s, mesh, _ := bringUp(t, 4, 4)
	pk := packet.PKey(0x8001)
	for _, hca := range mesh.HCAs {
		hca.PKeyTable.Add(pk)
	}
	type key struct{ src, dst packet.LID }
	got := map[key]bool{}
	for _, hca := range mesh.HCAs {
		hca.OnDeliver = func(d *fabric.Delivery) { got[key{d.Pkt.LRH.SLID, d.Pkt.LRH.DLID}] = true }
	}
	sent := 0
	for _, src := range mesh.HCAs {
		for _, dst := range mesh.HCAs {
			if src == dst {
				continue
			}
			p := &packet.Packet{
				LRH:     packet.LRH{SLID: src.LID(), DLID: dst.LID()},
				BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1},
				DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
				Payload: make([]byte, 64),
			}
			if err := icrc.Seal(p); err != nil {
				t.Fatal(err)
			}
			src.Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
			sent++
		}
	}
	s.Run()
	if len(got) != sent {
		t.Fatalf("delivered %d/%d pairs over the discovered fabric", len(got), sent)
	}
}

// A sweep without the correct M_Key discovers the topology (Gets are
// open) but cannot configure anything — the Table 3 M_Key threat seen
// from the defender's side.
func TestDiscoveryRejectedWithoutMKey(t *testing.T) {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 2, 2)
	AttachSwitchAgents(mesh, discMKey)
	for _, hca := range mesh.HCAs {
		AttachNodeAgent(hca, discMKey)
	}
	rogue := NewDiscoverer(s, mesh.HCA(0), keys.MKey(0xBAD), 50*sim.Microsecond)
	var topo *DiscoveredTopology
	rogue.Discover(func(tp *DiscoveredTopology) { topo = tp })
	s.Run()
	if topo == nil {
		t.Fatal("sweep incomplete")
	}
	if len(topo.Switches) != 4 || len(topo.CAs) != 4 {
		t.Fatalf("rogue discovery found %d/%d", len(topo.Switches), len(topo.CAs))
	}
	// But no LIDs assigned, no routes programmed.
	for _, hca := range mesh.HCAs {
		if hca.LID() != 0 && hca != mesh.HCA(0) {
			t.Fatalf("%s got a LID from a rogue SM", hca.Name())
		}
	}
	for _, sw := range mesh.Switches {
		if sw.Counters.Value(fabric.SwSMPRoutesSet) != 0 {
			t.Fatal("rogue SM programmed a route")
		}
		if sw.Counters.Value(fabric.SwSMPMKeyViolations) == 0 {
			t.Fatal("M_Key violations not counted")
		}
	}
}

// A lossy management plane: a transit switch deterministically drops a
// quarter of the early SMPs crossing it. With bounded retransmission the
// sweep still finds every node and only genuinely dead ports count as
// timeouts; without retries the same loss pattern visibly degrades the
// sweep — lost probes either hide nodes or inflate the timeout count.
func TestDiscoveryRetriesThroughMADLoss(t *testing.T) {
	sweep := func(maxRetries int, lossy bool) *DiscoveredTopology {
		s := sim.New()
		mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 4, 4)
		AttachSwitchAgents(mesh, discMKey)
		for _, hca := range mesh.HCAs {
			AttachNodeAgent(hca, discMKey)
		}
		if lossy {
			var seen int
			drop := map[int]bool{2: true, 9: true, 23: true, 31: true}
			mesh.Switches[5].SetMADTap(func(sw *fabric.Switch, d *fabric.Delivery) (bool, sim.Time) {
				seen++
				return drop[seen], 0
			})
		}
		disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
		disc.MaxRetries = maxRetries
		disc.SetTimeoutMult = 10
		var topo *DiscoveredTopology
		disc.Discover(func(tp *DiscoveredTopology) { topo = tp })
		s.Run()
		if topo == nil {
			t.Fatal("discovery never completed")
		}
		return topo
	}

	// On a lossless fabric the only retries are dead-port probes burning
	// their full budget before the terminal timeout.
	clean := sweep(2, false)
	if clean.Retries != 2*clean.Timeouts {
		t.Fatalf("clean sweep: %d retries for %d dead ports", clean.Retries, clean.Timeouts)
	}

	retried := sweep(2, true)
	if retried.Retries <= clean.Retries {
		t.Fatalf("MAD loss produced no extra retries (%d vs %d clean)",
			retried.Retries, clean.Retries)
	}
	if len(retried.Switches) != 16 || len(retried.CAs) != 16 {
		t.Fatalf("lossy sweep with retries found %d switches, %d CAs",
			len(retried.Switches), len(retried.CAs))
	}
	if retried.Timeouts != clean.Timeouts {
		t.Fatalf("timeouts %d with retries, want %d (dead ports only)",
			retried.Timeouts, clean.Timeouts)
	}

	bare := sweep(0, true)
	if len(bare.Switches) == 16 && len(bare.CAs) == 16 && bare.Timeouts == clean.Timeouts {
		t.Fatal("sweep without retries unaffected by MAD loss; loss injection broken")
	}
}

// Discovery is deterministic: two sweeps of identical fabrics assign
// identical LIDs.
func TestDiscoveryDeterministic(t *testing.T) {
	_, meshA, _ := bringUp(t, 3, 3)
	_, meshB, _ := bringUp(t, 3, 3)
	for i := range meshA.HCAs {
		if meshA.HCA(i).LID() != meshB.HCA(i).LID() {
			t.Fatalf("node %d: LID %d vs %d across identical sweeps",
				i, meshA.HCA(i).LID(), meshB.HCA(i).LID())
		}
	}
}

func TestDiscoveredEdgesMatchMesh(t *testing.T) {
	_, mesh, topo := bringUp(t, 2, 3)
	// Each switch's discovered east neighbour must be the actual mesh
	// neighbour.
	for y := 0; y < 3; y++ {
		for x := 0; x < 2; x++ {
			i := y*2 + x
			sw := mesh.Switches[i]
			if x+1 < 2 {
				want := mesh.Switches[y*2+x+1].GUID()
				if got := topo.Edges[topology.EdgeHalf{GUID: sw.GUID(), Port: topology.PortEast}]; got != want {
					t.Fatalf("switch %d east edge = %#x, want %#x", i, got, want)
				}
			}
			// Port 0 must point at the local HCA.
			if topo.Edges[topology.EdgeHalf{GUID: sw.GUID(), Port: topology.PortHCA}] != mesh.HCA(i).GUID() {
				t.Fatalf("switch %d HCA edge wrong", i)
			}
		}
	}
}

// TestInBandRoutesMatchRoutesAvoiding is differential: on blank w×h
// meshes (w, h in 1..5) with seeded random sets of dead inter-switch
// links, the forwarding tables an in-band Discover from node 0 programs
// are the ones RoutesAvoiding computes for the same dead links, at
// every switch for every HCA reachable from node 0's switch (only those
// get a LID). The two share the search but not the graph: configure's
// is the one the sweep discovered, each CA attached where its probe
// found it.
func TestInBandRoutesMatchRoutesAvoiding(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const trials = 16
	checked := 0
	for w := 1; w <= 5; w++ {
		for h := 1; h <= 5; h++ {
			for trial := 0; trial < trials; trial++ {
				s := sim.New()
				mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), w, h)
				AttachSwitchAgents(mesh, discMKey)
				AttachNodeAgents(mesh.HCAs, discMKey)
				dead := make(map[topology.LinkID]bool)
				kill := rng.Float64() / 2
				for i := range mesh.Switches {
					for _, p := range []int{topology.PortEast, topology.PortSouth} {
						peer, back, ok := topology.MeshNeighbor(w, h, i, p)
						if ok && rng.Float64() < kill {
							dead[topology.LinkID{Switch: i, Port: p}] = true
							mesh.Switches[i].SetLinkState(p, false)
							mesh.Switches[peer].SetLinkState(back, false)
						}
					}
				}
				disc := NewDiscoverer(s, mesh.HCA(0), discMKey, 50*sim.Microsecond)
				configured := false
				disc.Discover(func(*DiscoveredTopology) { configured = true })
				s.Run()
				if !configured {
					t.Fatalf("%dx%d, dead %v: discovery never completed", w, h, dead)
				}
				want := mesh.RoutesAvoiding(nil, dead)
				var reach topology.Tree
				reach.SearchMesh(w, h, 0, func(near, far topology.LinkID) bool { return !dead[near] && !dead[far] })
				for n, hca := range mesh.HCAs {
					_, reached := reach.FirstHop(n)
					lid := hca.LID()
					if (n == 0 || reached) != (lid != 0) {
						t.Fatalf("%dx%d, dead %v: node %d has LID %d, reachable %v", w, h, dead, n, lid, n == 0 || reached)
					}
					if lid == 0 {
						continue
					}
					for i, sw := range mesh.Switches {
						port, ok := sw.Route(lid)
						wantPort, wantOK := want[i][lid]
						if port != wantPort || ok != wantOK {
							t.Fatalf("%dx%d, dead %v: switch %d routes LID %d to port %d (%v), RoutesAvoiding to %d (%v)",
								w, h, dead, i, lid, port, ok, wantPort, wantOK)
						}
						checked++
					}
				}
			}
		}
	}
	t.Logf("%d forwarding entries checked", checked)
}
