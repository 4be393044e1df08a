// Package attack implements the paper's Table 3 threat matrix as
// executable scenarios: for each IBA key family it mounts the key-theft
// attack the paper describes, once against plain IBA and once against the
// proposed ICRC-as-MAC authentication, and reports whether the attack
// succeeded. The `ibsim attacks` command prints the resulting matrix and
// the integration tests assert it.
package attack

import (
	"fmt"
	"math/rand"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/sm"
	"ibasec/internal/topology"
	"ibasec/internal/transport"
)

// Outcome is one row of the attack matrix.
type Outcome struct {
	Key      string // which IBA key was stolen
	Scenario string // what the attacker did with it
	// SucceededPlain: the attack worked against unmodified IBA.
	SucceededPlain bool
	// SucceededAuth: the attack worked with the paper's authentication
	// enabled.
	SucceededAuth bool
	// Note explains the result.
	Note string
}

func (o Outcome) String() string {
	verdict := func(ok bool) string {
		if ok {
			return "ATTACK SUCCEEDS"
		}
		return "blocked"
	}
	return fmt.Sprintf("%-10s %-38s plain IBA: %-15s with ICRC-MAC: %-15s %s",
		o.Key, o.Scenario, verdict(o.SucceededPlain), verdict(o.SucceededAuth), o.Note)
}

// world is a 2x2 mesh with transport endpoints, the attacker on node 1,
// victims on nodes 0 and 3.
type world struct {
	s    *sim.Simulator
	mesh *topology.Mesh
	eps  []*transport.Endpoint
}

const victimPKey = packet.PKey(0x8001)

func newWorld(seed int64, withAuth bool, level transport.KeyLevel) *world {
	rng := rand.New(rand.NewSource(seed))
	s := sim.New()
	mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	dir := keys.NewDirectory()
	kps := make([]*keys.NodeKeyPair, mesh.NumNodes())
	for i := range kps {
		kp, err := keys.GenerateNodeKeyPair(rng)
		if err != nil {
			panic(err)
		}
		kps[i] = kp
		dir.Register(mesh.HCA(i).Name(), kp.Public())
	}
	w := &world{s: s, mesh: mesh}
	authID := uint8(0)
	if withAuth {
		authID = mac.IDUMAC32
	}
	for i := 0; i < mesh.NumNodes(); i++ {
		mesh.HCA(i).PKeyTable.Add(victimPKey)
		w.eps = append(w.eps, transport.NewEndpoint(mesh.HCA(i), transport.Config{
			Registry:  mac.DefaultRegistry(),
			AuthID:    authID,
			KeyLevel:  level,
			RNG:       rng,
			Directory: dir,
			KeyPair:   kps[i],
		}))
	}
	if withAuth && level == transport.PartitionLevel {
		var secret keys.SecretKey
		rng.Read(secret[:])
		// The attacker's endpoint (node 1) deliberately does NOT get
		// the partition secret: stealing the P_Key is not stealing the
		// partition's authentication secret.
		for _, i := range []int{0, 2, 3} {
			w.eps[i].Store.InstallPartitionSecret(victimPKey, secret)
		}
	}
	return w
}

// PKeyTheft: the attacker captured a valid P_Key on the wire and injects
// a packet into the partition (Table 3: "Any user acquiring a P_Key of a
// partition can break membership restriction of the partition").
func PKeyTheft(seed int64) Outcome {
	run := func(withAuth bool) bool {
		w := newWorld(seed, withAuth, transport.PartitionLevel)
		victim := w.eps[3].CreateUDQP(victimPKey, 0x42)
		victim.AuthRequired = withAuth
		received := false
		victim.OnRecv = func([]byte, packet.LID, packet.QPN) { received = true }

		// The attacker knows the stolen P_Key and the victim's Q_Key
		// (both plaintext on the wire) but has no secret key.
		p := &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: victimPKey, DestQP: victim.N, PSN: 1},
			DETH:    &packet.DETH{QKey: victim.QKey, SrcQP: 9},
			Payload: []byte("intruder in your partition"),
		}
		if err := icrc.Seal(p); err != nil {
			panic(err)
		}
		w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
		w.s.Run()
		return received
	}
	return Outcome{
		Key:            "P_Key",
		Scenario:       "inject into partition with stolen P_Key",
		SucceededPlain: run(false),
		SucceededAuth:  run(true),
		Note:           "MAC key, not P_Key, now gates membership (section 4.2)",
	}
}

// QKeyTheft: with P_Key and Q_Key exposed, the attacker hijacks a
// datagram QP (Table 3: "the existence of Q_Key authenticates the
// packet").
func QKeyTheft(seed int64) Outcome {
	run := func(withAuth bool) bool {
		w := newWorld(seed, withAuth, transport.PartitionLevel)
		victim := w.eps[3].CreateUDQP(victimPKey, 0xFEED)
		victim.AuthRequired = withAuth
		hijacked := false
		victim.OnRecv = func([]byte, packet.LID, packet.QPN) { hijacked = true }

		p := &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(1), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: victimPKey, DestQP: victim.N, PSN: 7},
			DETH:    &packet.DETH{QKey: victim.QKey, SrcQP: 4}, // stolen Q_Key
			Payload: []byte("forged datagram"),
		}
		if err := icrc.Seal(p); err != nil {
			panic(err)
		}
		w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
		w.s.Run()
		return hijacked
	}
	return Outcome{
		Key:            "Q_Key",
		Scenario:       "hijack datagram QP with stolen Q_Key",
		SucceededPlain: run(false),
		SucceededAuth:  run(true),
		Note:           "unsigned packets rejected by auth-required QP",
	}
}

// RKeyTheft: with the R_Key exposed, the attacker overwrites victim
// memory via RDMA without the destination consumer's involvement
// (Table 3: "the memory can be read or written without any intervention
// of destination QP").
func RKeyTheft(seed int64) Outcome {
	run := func(withAuth bool) bool {
		w := newWorld(seed, withAuth, transport.QPLevel)
		victimQP := w.eps[3].CreateRCQP(victimPKey)
		victimQP.AuthRequired = withAuth
		region := w.eps[3].RegisterMemory(128)
		copy(region.Data, []byte("precious data"))

		// Legitimate peer (node 0) establishes the RC connection the
		// attacker will try to piggyback on.
		legit := w.eps[0].CreateRCQP(victimPKey)
		legit.AuthRequired = withAuth
		w.eps[0].ConnectRC(legit, topology.LIDOf(3), victimQP.N, nil)
		w.s.Run()

		// Attacker forges an RDMA write using the stolen R_Key,
		// spoofing the legitimate peer's LID and QP so the packet
		// matches the victim QP's connection state, and using the next
		// expected PSN (PSNs, like keys, are plaintext on the wire).
		p := &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(0), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.RCRDMAWriteOnly, PKey: victimPKey, DestQP: victimQP.N, PSN: 0},
			RETH:    &packet.RETH{VA: region.VA, RKey: region.RKey, DMALen: 9},
			Payload: []byte("corrupted"),
		}
		if err := icrc.Seal(p); err != nil {
			panic(err)
		}
		w.mesh.HCA(1).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
		w.s.Run()
		return string(region.Data[:9]) == "corrupted"
	}
	return Outcome{
		Key:            "R_Key",
		Scenario:       "RDMA-write victim memory with stolen R_Key",
		SucceededPlain: run(false),
		SucceededAuth:  run(true),
		Note:           "QP-level keys guarantee authentic RDMA (section 4.3)",
	}
}

// MKeyTheft: the attacker attempts subnet reconfiguration. Without the
// M_Key every configuration MAD is rejected; the scenario shows the
// check, and that a guessed M_Key fails (Table 3: "leaking M_Key becomes
// a serious problem" — key secrecy is the only defence, which the
// paper's confidentiality-of-keys design addresses).
func MKeyTheft(seed int64) Outcome {
	build := func() *sm.SubnetManager {
		s := sim.New()
		mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
		cfg := sm.DefaultConfig()
		cfg.AutoDisablePeriod = 0
		return sm.New(s, mesh, (*enforce.Filter)(nil), cfg)
	}
	// Plain IBA: an attacker who sniffed the plaintext M_Key succeeds.
	manager := build()
	stolen := sm.DefaultConfig().MKey
	plain := manager.CreatePartition(stolen, packet.PKey(0x8099), []int{0, 1}) == nil

	// With encrypted key distribution the M_Key never appears on the
	// wire; the attacker is reduced to guessing.
	manager2 := build()
	guess := keys.MKey(0xDEAD)
	auth := manager2.CreatePartition(guess, packet.PKey(0x8099), []int{0, 1}) == nil

	return Outcome{
		Key:            "M_Key",
		Scenario:       "reconfigure subnet with captured/guessed M_Key",
		SucceededPlain: plain,
		SucceededAuth:  auth,
		Note:           "encrypting keys in flight removes the capture channel (section 2.2)",
	}
}

// BKeyTheft: the attacker uses a sniffed B_Key to power-cycle a victim's
// baseboard and flash rogue firmware (Table 3: "a malicious user having
// B_Key can change hardware configuration").
func BKeyTheft(seed int64) Outcome {
	// Plain IBA: B_Key crossed the wire in plaintext; the attacker has
	// it and owns the hardware.
	stolen := keys.BKey(0xB10C0DE)
	bb := sm.NewBaseboard(stolen)
	powerOff := bb.SetPower(stolen, false) == nil
	flash := bb.UpdateFirmware(stolen, 666) == nil
	plain := powerOff && flash && !bb.PowerOn && bb.FirmwareVersion == 666

	// With encrypted key distribution the B_Key never appears on the
	// wire; the attacker guesses a 64-bit value and is counted.
	bb2 := sm.NewBaseboard(keys.BKey(0xB10C0DE))
	guess := keys.BKey(0xBAD0000 + uint64(seed))
	auth := bb2.SetPower(guess, false) == nil
	if bb2.Counters.Value(sm.BoardBKeyViolations) == 0 {
		auth = true // the guard must at least have fired
	}
	return Outcome{
		Key:            "B_Key",
		Scenario:       "power-cycle + rogue firmware via B_Key",
		SucceededPlain: plain,
		SucceededAuth:  auth,
		Note:           "baseboard guard holds once the key stays confidential",
	}
}

// Replay: the attacker captures a validly signed packet and resends it.
// Authentication alone does not stop this (section 7); the PSN nonce
// extension does.
func Replay(seed int64) Outcome {
	run := func(replayProtect bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		mesh := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
		for i := 0; i < 4; i++ {
			mesh.HCA(i).PKeyTable.Add(victimPKey)
		}
		mkEp := func(i int) *transport.Endpoint {
			return transport.NewEndpoint(mesh.HCA(i), transport.Config{
				Registry:      mac.DefaultRegistry(),
				AuthID:        mac.IDUMAC32,
				KeyLevel:      transport.PartitionLevel,
				ReplayProtect: replayProtect,
				RNG:           rng,
			})
		}
		src, dst := mkEp(0), mkEp(3)
		var secret keys.SecretKey
		rng.Read(secret[:])
		src.Store.InstallPartitionSecret(victimPKey, secret)
		dst.Store.InstallPartitionSecret(victimPKey, secret)

		sq := src.CreateUDQP(victimPKey, 0)
		dq := dst.CreateUDQP(victimPKey, 0x42)
		sq.AuthRequired, dq.AuthRequired = true, true
		deliveries := 0
		dq.OnRecv = func([]byte, packet.LID, packet.QPN) { deliveries++ }

		// Capture the signed packet in flight.
		var captured *packet.Packet
		inner := mesh.HCA(3).OnDeliver
		mesh.HCA(3).OnDeliver = func(d *fabric.Delivery) {
			if captured == nil && d.Pkt.BTH.DestQP == dq.N {
				captured = d.Pkt.Clone()
			}
			inner(d)
		}
		if err := src.SendUD(sq, topology.LIDOf(3), dq.N, dq.QKey, []byte("wire $100"), fabric.ClassBestEffort); err != nil {
			panic(err)
		}
		s.Run()
		// Replay verbatim from the attacker's position.
		mesh.HCA(1).Send(&fabric.Delivery{Pkt: captured, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
		s.Run()
		return deliveries > 1
	}
	return Outcome{
		Key:            "(replay)",
		Scenario:       "replay a captured authenticated packet",
		SucceededPlain: run(false), // MAC without nonce tracking
		SucceededAuth:  run(true),  // with the PSN nonce extension
		Note:           "needs the section-7 nonce extension, not the MAC alone",
	}
}

// Matrix runs every scenario and returns the Table 3 outcome rows.
func Matrix(seed int64) []Outcome {
	return []Outcome{
		MKeyTheft(seed),
		BKeyTheft(seed),
		PKeyTheft(seed),
		QKeyTheft(seed),
		RKeyTheft(seed),
		Replay(seed),
	}
}
