package topology

import (
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

func mkPkt(src, dst packet.LID, payload int) *packet.Packet {
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: src, DLID: dst},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0x8001, DestQP: 1},
		DETH: &packet.DETH{QKey: 1, SrcQP: 1},
	}
	p.Payload = make([]byte, payload)
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	return p
}

func build(t *testing.T, w, h int) (*sim.Simulator, *Mesh) {
	t.Helper()
	s := sim.New()
	m := NewMesh(s, fabric.DefaultParams(), w, h)
	for _, hca := range m.HCAs {
		if err := hca.PKeyTable.Add(packet.PKey(0x8001)); err != nil {
			t.Fatal(err)
		}
	}
	return s, m
}

func TestMeshShape(t *testing.T) {
	_, m := build(t, 4, 4)
	if m.NumNodes() != 16 || len(m.Switches) != 16 {
		t.Fatalf("nodes=%d switches=%d", m.NumNodes(), len(m.Switches))
	}
	for i, sw := range m.Switches {
		if sw.NumPorts() != 5 {
			t.Fatalf("switch %d has %d ports", i, sw.NumPorts())
		}
		if !sw.IsIngress(PortHCA) {
			t.Fatalf("switch %d HCA port not ingress", i)
		}
		if sw.IsIngress(PortEast) {
			t.Fatalf("switch %d mesh port marked ingress", i)
		}
	}
	if m.NodeByLID(LIDOf(5)) != 5 {
		t.Fatal("LID mapping broken")
	}
	if m.NodeByLID(0) != -1 || m.NodeByLID(100) != -1 {
		t.Fatal("invalid LIDs must map to -1")
	}
}

func TestHopsFormula(t *testing.T) {
	_, m := build(t, 4, 4)
	if m.Hops(0, 0) != 1 {
		t.Fatalf("self hops = %d", m.Hops(0, 0))
	}
	if m.Hops(0, 3) != 4 { // 3 in x, same y: 4 switches
		t.Fatalf("row hops = %d", m.Hops(0, 3))
	}
	if m.Hops(0, 15) != 7 { // corner to corner: 3+3+1
		t.Fatalf("diagonal hops = %d", m.Hops(0, 15))
	}
	if m.Hops(5, 6) != 2 {
		t.Fatalf("neighbour hops = %d", m.Hops(5, 6))
	}
}

// Every ordered pair must deliver, with the DOR hop count.
func TestAllPairsDelivery(t *testing.T) {
	s, m := build(t, 4, 4)
	type key struct{ src, dst int }
	got := map[key]*fabric.Delivery{}
	for i, hca := range m.HCAs {
		i := i
		hca.OnDeliver = func(d *fabric.Delivery) {
			got[key{m.NodeByLID(d.Pkt.LRH.SLID), i}] = d
		}
	}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			m.HCA(src).Send(&fabric.Delivery{
				Pkt:   mkPkt(LIDOf(src), LIDOf(dst), 256),
				Class: fabric.ClassBestEffort,
				VL:    fabric.VLBestEffort,
			})
		}
	}
	s.Run()
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst {
				continue
			}
			d := got[key{src, dst}]
			if d == nil {
				t.Fatalf("pair %d->%d not delivered", src, dst)
			}
			if want := m.Hops(src, dst); d.Hops != want {
				t.Fatalf("pair %d->%d took %d hops, want %d", src, dst, d.Hops, want)
			}
		}
	}
}

// Latency must scale with distance on an idle mesh.
func TestLatencyScalesWithDistance(t *testing.T) {
	s, m := build(t, 4, 4)
	var near, far *fabric.Delivery
	m.HCA(1).OnDeliver = func(d *fabric.Delivery) { near = d }
	m.HCA(15).OnDeliver = func(d *fabric.Delivery) { far = d }

	m.HCA(0).Send(&fabric.Delivery{Pkt: mkPkt(LIDOf(0), LIDOf(1), 1024), Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()
	m.HCA(0).Send(&fabric.Delivery{Pkt: mkPkt(LIDOf(0), LIDOf(15), 1024), Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()

	if near == nil || far == nil {
		t.Fatal("deliveries missing")
	}
	if far.NetworkLatency() <= near.NetworkLatency() {
		t.Fatalf("far latency %v <= near latency %v", far.NetworkLatency(), near.NetworkLatency())
	}
	// Full-size packet across the diagonal: 8 serializations of ~3.46us
	// each would be ~28us; sanity-bound between 10us and 60us.
	lat := far.NetworkLatency().Microseconds()
	if lat < 10 || lat > 60 {
		t.Fatalf("corner-to-corner latency %vus outside sanity band", lat)
	}
}

func TestMeshRoutesXFirst(t *testing.T) {
	_, m := build(t, 4, 4)
	// From switch (0,0), a packet to node (2,2)=10 must exit east.
	sw := m.SwitchOf(0)
	port, ok := sw.Route(LIDOf(10))
	if !ok || port != PortEast {
		t.Fatalf("route = %d, want east", port)
	}
	// From switch (2,0)=2, the same packet must head south.
	sw2 := m.SwitchOf(2)
	port2, _ := sw2.Route(LIDOf(10))
	if port2 != PortSouth {
		t.Fatalf("route = %d, want south", port2)
	}
	// At its own switch, the HCA port.
	sw3 := m.SwitchOf(10)
	port3, _ := sw3.Route(LIDOf(10))
	if port3 != PortHCA {
		t.Fatalf("route = %d, want HCA", port3)
	}
}

func TestBadMeshPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMesh(sim.New(), fabric.DefaultParams(), 0, 4)
}

func TestNonSquareMesh(t *testing.T) {
	s, m := build(t, 2, 3)
	if m.NumNodes() != 6 {
		t.Fatalf("nodes = %d", m.NumNodes())
	}
	n := 0
	m.HCA(5).OnDeliver = func(d *fabric.Delivery) { n++ }
	m.HCA(0).Send(&fabric.Delivery{Pkt: mkPkt(LIDOf(0), LIDOf(5), 64), Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()
	if n != 1 {
		t.Fatal("delivery across non-square mesh failed")
	}
}

// Each switch's forwarding table is sized once, to the mesh's LIDs, when
// the mesh is wired: programming every route of a blank mesh allocates
// nothing. Each run, AllocsPerRun's warm-up included, programs a mesh of
// its own, so every one measured is a first programming.
func TestMeshTablesSizedOnce(t *testing.T) {
	const runs = 3
	meshes := make([]*Mesh, runs+1)
	for i := range meshes {
		meshes[i] = NewBlankMesh(sim.New(), fabric.DefaultParams(), 8, 8)
	}
	next := 0
	program := func() {
		meshes[next].programDOR()
		next++
	}
	if n := testing.AllocsPerRun(runs, program); n != 0 {
		t.Fatalf("programming an 8x8 mesh's routes allocated %.1f times, want 0", n)
	}
	for _, m := range meshes {
		if port, ok := m.Switches[0].Route(LIDOf(63)); !ok || port != PortEast {
			t.Fatalf("sw0-0 routes LID %d to port %d (%v), want east", LIDOf(63), port, ok)
		}
	}
}
