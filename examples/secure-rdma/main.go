// secure-rdma demonstrates the paper's Table 3 R_Key threat and its fix
// at the transport layer: an RDMA write lands in a victim's memory with
// nothing but a stolen R_Key on plain IBA, and is rejected once QP-level
// authentication keys (section 4.3) gate the connection.
//
// This example drives the library's internal transport layer directly to
// show the verification pipeline; the top-level ibasec package wraps the
// same machinery for whole-cluster experiments.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

const pkey = packet.PKey(0x8001)

// buildWorld wires a 2x2 mesh with a transport endpoint per node.
func buildWorld(withAuth bool) (*sim.Simulator, *topology.Mesh, []*transport.Endpoint) {
	rng := rand.New(rand.NewSource(42))
	s := sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	dir := keys.NewDirectory()
	var kps []*keys.NodeKeyPair
	for i := 0; i < mesh.NumNodes(); i++ {
		kp, err := keys.GenerateNodeKeyPair(rng)
		if err != nil {
			log.Fatal(err)
		}
		kps = append(kps, kp)
		dir.Register(mesh.HCA(i).Name(), kp.Public())
	}
	var eps []*transport.Endpoint
	authID := uint8(0)
	if withAuth {
		authID = mac.IDUMAC32
	}
	for i := 0; i < mesh.NumNodes(); i++ {
		mesh.HCA(i).PKeyTable.Add(pkey)
		eps = append(eps, transport.NewEndpoint(mesh.HCA(i), transport.Config{
			Registry:  mac.DefaultRegistry(),
			AuthID:    authID,
			KeyLevel:  transport.QPLevel,
			RNG:       rng,
			Directory: dir,
			KeyPair:   kps[i],
		}))
	}
	return s, mesh, eps
}

func scenario(withAuth bool) {
	s, mesh, eps := buildWorld(withAuth)
	app, victim, attacker := eps[0], eps[3], 1

	// The victim registers a buffer; its R_Key would normally be shared
	// only with the application peer, but the paper's threat model says
	// it leaks (plaintext on the wire, or a crashed switch).
	region := victim.RegisterMemory(64)
	copy(region.Data, []byte("account balance: $1,000,000"))

	// Legitimate RC connection app(node0) <-> victim(node3). Under
	// QP-level management the connect handshake carries a fresh pair
	// secret sealed to the victim's public key.
	appQP := app.CreateRCQP(pkey)
	victimQP := victim.CreateRCQP(pkey)
	appQP.AuthRequired = withAuth
	victimQP.AuthRequired = withAuth
	if err := app.ConnectRC(appQP, topology.LIDOf(3), victimQP.N, nil); err != nil {
		log.Fatal(err)
	}
	s.Run()

	// The legitimate peer writes — always works.
	if err := app.RDMAWrite(appQP, region.VA, region.RKey, []byte("legit update --- "), fabric.ClassBestEffort); err != nil {
		log.Fatal(err)
	}
	s.Run()

	// The attacker forges an RDMA write with the stolen R_Key, spoofing
	// the legitimate peer's source LID and QP number and the next
	// expected PSN (snooped from the wire like everything else).
	forged := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(0), DLID: topology.LIDOf(3)},
		BTH:     packet.BTH{OpCode: packet.RCRDMAWriteOnly, PKey: pkey, DestQP: victimQP.N, PSN: 1},
		RETH:    &packet.RETH{VA: region.VA, RKey: region.RKey, DMALen: 10},
		Payload: []byte("PWNED!!!!!"),
	}
	if err := icrc.Seal(forged); err != nil {
		log.Fatal(err)
	}
	mesh.HCA(attacker).Send(&fabric.Delivery{Pkt: forged, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	s.Run()

	mode := "plain IBA          "
	if withAuth {
		mode = "QP-level ICRC-MAC  "
	}
	fmt.Printf("%s victim memory: %q\n", mode, string(region.Data[:27]))
	fmt.Printf("%s rdma writes applied=%d, rkey checks passed with forged tag rejected=%d\n\n",
		mode, victim.Counters.Value(transport.EpRDMAWrites), victim.Counters.Value(transport.EpAuthMissing)+victim.Counters.Value(transport.EpAuthFail))
}

func main() {
	fmt.Println("Table 3, R_Key row: RDMA write with a stolen R_Key")
	fmt.Println()
	scenario(false)
	scenario(true)
	fmt.Println("With QP-level keys the forged write is dropped at the authentication")
	fmt.Println("check: the attacker holds the R_Key but not the pair's secret key.")
}
