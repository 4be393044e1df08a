// secure-rdma demonstrates the paper's Table 3 R_Key threat and its fix
// at the transport layer: an RDMA write lands in a victim's memory with
// nothing but a stolen R_Key on plain IBA, and is rejected once QP-level
// authentication keys (section 4.3) gate the connection.
//
// The fabric comes from ibasec.Build, the builder behind every
// experiment, with QP-level keys; the example then drives the cluster's
// transport endpoints directly to show the verification pipeline. The
// two runs differ only in whether the connection's QPs require
// authentication.
package main

import (
	"fmt"
	"log"

	"ibasec"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// pkey is the one partition's key: Build names partition g 0x8000|(g+1).
const pkey = packet.PKey(0x8001)

// buildWorld builds a 2x2 mesh whose one partition holds every node, with
// a transport endpoint per node and QP-level keys; no traffic runs.
func buildWorld() *ibasec.Cluster {
	cfg := ibasec.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.NumPartitions = 1
	cfg.Seed = 42
	cfg.Auth = ibasec.AuthConfig{Enabled: true, FuncID: ibasec.AuthUMAC32, Level: ibasec.QPLevel}
	cl, err := ibasec.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return cl
}

func scenario(withAuth bool) {
	cl := buildWorld()
	s, mesh := cl.Sim, cl.Mesh
	app, victim, attacker := cl.Endpoints[0], cl.Endpoints[3], 1

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
