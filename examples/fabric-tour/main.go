// fabric-tour exercises the library's fabric and transport features that
// back the paper's assumptions: credit-based flow control, the two VL
// arbiters, link failure injection with CRC detection, and the three IBA
// transport services (RC with reliability, UC, UD) including RDMA read
// and write.
package main

import (
	"fmt"
	"log"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

const pkey = packet.PKey(0x8001)

func buildMesh(params *fabric.Params) (*sim.Simulator, *topology.Mesh, []*transport.Endpoint) {
	s := sim.New()
	mesh := topology.NewMesh(s, params, 2, 2)
	var eps []*transport.Endpoint
	for i := 0; i < mesh.NumNodes(); i++ {
		mesh.HCA(i).PKeyTable.Add(pkey)
		eps = append(eps, transport.NewEndpoint(mesh.HCA(i), transport.Config{
			RNG: sim.NewRand(int64(i) + 1),
		}))
	}
	return s, mesh, eps
}

// check exits non-zero on a transport call's error.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func arbitrationDemo() {
	fmt.Println("== VL arbitration: strict priority vs IBA weighted tables ==")
	for _, mode := range []fabric.ArbitrationMode{fabric.ArbStrictPriority, fabric.ArbWeighted} {
		params := fabric.DefaultParams()
		params.Arbitration = mode
		params.HighPriLimit = 2
		s, _, eps := buildMesh(params)

		// Backlog both VLs at node 0 toward node 1, then watch the
		// service order.
		rcRT := eps[0].CreateRCQP(pkey)
		peerRT := eps[1].CreateRCQP(pkey)
		rcBE := eps[0].CreateUCQP(pkey)
		peerBE := eps[1].CreateUCQP(pkey)
		var order []string
		peerRT.OnRecv = func([]byte, packet.LID, packet.QPN) { order = append(order, "RT") }
		peerBE.OnRecv = func([]byte, packet.LID, packet.QPN) { order = append(order, "BE") }
		check(eps[0].ConnectRC(rcRT, topology.LIDOf(1), peerRT.N, nil))
		check(eps[0].ConnectUC(rcBE, topology.LIDOf(1), peerBE.N, nil))
		s.Run()

		for i := 0; i < 3; i++ {
			check(eps[0].SendUC(rcBE, make([]byte, 1024), fabric.ClassBestEffort))
		}
		for i := 0; i < 6; i++ {
			check(eps[0].SendRC(rcRT, make([]byte, 1024), fabric.ClassRealtime))
		}
		s.Run()
		fmt.Printf("  %-16v service order: %v\n", mode, order)
	}
	fmt.Println("  (strict priority drains all realtime first; the weighted arbiter")
	fmt.Println("   lets best-effort through every HighPriLimit packets)")
	fmt.Println()
}

func failureDemo() {
	fmt.Println("== Link bit errors: CRC detection + RC retransmission ==")
	params := fabric.DefaultParams()
	params.BitErrorRate = 4e-6
	params.RNG = sim.NewRand(99)
	s, mesh, eps := buildMesh(params)

	a := eps[0].CreateRCQP(pkey)
	b := eps[3].CreateRCQP(pkey)
	delivered := 0
	b.OnRecv = func([]byte, packet.LID, packet.QPN) { delivered++ }
	check(eps[0].ConnectRC(a, topology.LIDOf(3), b.N, nil))
	s.Run()

	const n = 100
	for i := 0; i < n; i++ {
		check(eps[0].SendRC(a, make([]byte, 1024), fabric.ClassBestEffort))
	}
	s.Run()
	var crcDrops uint64
	for _, sw := range mesh.Switches {
		crcDrops += sw.Counters.Value(fabric.SwVCRCDrops)
	}
	for i := 0; i < 4; i++ {
		crcDrops += mesh.HCA(i).Counters.Value(fabric.HCAVCRCDrops) + mesh.HCA(i).Counters.Value(fabric.HCAICRCDrops)
	}
	fmt.Printf("  sent %d packets over lossy links (BER 4e-6)\n", n)
	fmt.Printf("  CRC checks dropped %d corrupted packets\n", crcDrops)
	fmt.Printf("  reliability layer retransmitted %d, delivered %d/%d in order, broken=%v\n",
		eps[0].Counters.Value(transport.EpRCRetransmissions), delivered, n, a.Broken())
	fmt.Println()
}

func rdmaDemo() {
	fmt.Println("== RDMA write + read over RC ==")
	params := fabric.DefaultParams()
	s, _, eps := buildMesh(params)
	a := eps[0].CreateRCQP(pkey)
	b := eps[2].CreateRCQP(pkey)
	check(eps[0].ConnectRC(a, topology.LIDOf(2), b.N, nil))
	s.Run()

	region := eps[2].RegisterMemory(256)
	check(eps[0].RDMAWrite(a, region.VA, region.RKey, []byte("written by node 0 via RDMA"), fabric.ClassBestEffort))
	s.Run()

	var readBack []byte
	check(eps[0].RDMARead(a, region.VA, region.RKey, 26, fabric.ClassBestEffort, func(data []byte) {
		readBack = data
	}))
	s.Run()
	fmt.Printf("  wrote then read back: %q\n", readBack)
	fmt.Printf("  responder counters: %s\n", eps[2].Counters.String())
}

func main() {
	arbitrationDemo()
	failureDemo()
	rdmaDemo()
}
