// subnet-bringup boots a completely unconfigured InfiniBand fabric the
// way a real Subnet Manager does: directed-route SMPs sweep the mesh hop
// by hop, discover every switch and channel adapter, assign LIDs, and
// program the forwarding tables — all in-band, with every Set operation
// guarded by the M_Key (the key whose theft tops the paper's Table 3).
package main

import (
	"fmt"
	"log"
	"sort"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
)

const mkey = keys.MKey(0x5EC0DE)

func main() {
	s := sim.New()
	mesh := topology.NewBlankMesh(s, fabric.DefaultParams(), 4, 4)
	sm.AttachSwitchAgents(mesh, mkey)
	for _, hca := range mesh.HCAs {
		sm.AttachNodeAgent(hca, mkey)
	}

	fmt.Println("power-on state: no LIDs, no routes")
	fmt.Printf("  node 5 LID = %d, switch 0 routes LID 6? ", mesh.HCA(5).LID())
	_, ok := mesh.Switches[0].Route(6)
	fmt.Println(ok)
	fmt.Println()

	// The SM on node 0 sweeps the fabric.
	disc := sm.NewDiscoverer(s, mesh.HCA(0), mkey, 50*sim.Microsecond)
	var topo *sm.DiscoveredTopology
	disc.Discover(func(tp *sm.DiscoveredTopology) { topo = tp })
	s.Run()
	if topo == nil {
		log.Fatal("discovery did not complete")
	}

	fmt.Printf("sweep complete at t=%v:\n", s.Now())
	fmt.Printf("  %d switches, %d channel adapters discovered\n", len(topo.Switches), len(topo.CAs))
	fmt.Printf("  %d SMP probes, %d dead-port timeouts\n", topo.Probes, topo.Timeouts)

	var lids []int
	for _, hca := range mesh.HCAs {
		lids = append(lids, int(hca.LID()))
	}
	sort.Ints(lids)
	fmt.Printf("  LIDs assigned: %v\n", lids)
	var routes uint64
	for _, sw := range mesh.Switches {
		routes += sw.Counters.Value(fabric.SwSMPRoutesSet)
	}
	fmt.Printf("  forwarding entries programmed in-band: %d\n\n", routes)

	// Prove the fabric works: send a data packet corner to corner.
	pk := packet.PKey(0x8001)
	mesh.HCA(0).PKeyTable.Add(pk)
	mesh.HCA(15).PKeyTable.Add(pk)
	delivered := false
	mesh.HCA(15).OnDeliver = func(*fabric.Delivery) { delivered = true }
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: mesh.HCA(0).LID(), DLID: mesh.HCA(15).LID()},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1},
		DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
		Payload: []byte("hello from a self-configured fabric"),
	}
	if err := icrc.Seal(p); err != nil {
		log.Fatal(err)
	}
	mesh.HCA(0).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()
	fmt.Printf("corner-to-corner data packet delivered: %v\n\n", delivered)

	// And the security angle: a rogue SM without the M_Key can look but
	// not touch.
	s2 := sim.New()
	mesh2 := topology.NewBlankMesh(s2, fabric.DefaultParams(), 2, 2)
	sm.AttachSwitchAgents(mesh2, mkey)
	for _, hca := range mesh2.HCAs {
		sm.AttachNodeAgent(hca, mkey)
	}
	rogue := sm.NewDiscoverer(s2, mesh2.HCA(0), keys.MKey(0xBAD), 50*sim.Microsecond)
	rogue.Discover(func(*sm.DiscoveredTopology) {})
	s2.Run()
	var violations uint64
	for _, sw := range mesh2.Switches {
		violations += sw.Counters.Value(fabric.SwSMPMKeyViolations)
	}
	fmt.Printf("rogue SM without the M_Key: %d Set operations rejected, fabric untouched\n", violations)
	fmt.Println("(Table 3, M_Key row: whoever holds this key owns the subnet)")
}
