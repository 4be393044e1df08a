// Package attack implements the paper's Table 3 threat matrix as
// executable scenarios: for each IBA key family it mounts the key-theft
// attack the paper describes, once against plain IBA and once against the
// proposed ICRC-as-MAC authentication, and reports whether the attack
// succeeded. The `ibsim attacks` command prints the resulting matrix and
// the integration tests assert it.
package attack

import (
	"fmt"

	"ibasec/internal/core"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/mac"
	"ibasec/internal/packet"
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

const (
	victimPKey = packet.PKey(0x8001)
	attacker   = 1 // victims sit on nodes 0 and 3
)

// world builds a scenario's fabric through core.Build: a 2x2 mesh whose
// one partition, victimPKey, holds all four nodes, with ICRC-as-MAC keys
// managed at level. Build starts no traffic. Both arms of a scenario run
// on this world; they differ only in whether the victim's QPs set
// AuthRequired, the paper's per-QP choice.
func world(seed int64, level transport.KeyLevel) *core.Cluster {
	cfg := core.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.NumPartitions = 1
	cfg.Seed = seed
	cfg.Auth = core.AuthConfig{Enabled: true, FuncID: mac.IDUMAC32, Level: level}
	cl, err := core.Build(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// steal is the key theft: the SM evicts the attacker from the partition,
// wiping its secrets and rotating the partition secret for the members
// left, and the attacker puts the captured P_Key back into its own
// table. It holds the P_Key, plaintext on the wire, but not the secret.
func steal(cl *core.Cluster) {
	if err := cl.SM.RemoveFromPartition(cl.Cfg.SM.MKey, victimPKey, attacker); err != nil {
		panic(err)
	}
	if err := cl.Mesh.HCA(attacker).PKeyTable.Add(victimPKey); err != nil {
		panic(err)
	}
}

// inject sends p from the attacker's HCA exactly as it stands and runs
// the fabric until it settles.
func inject(cl *core.Cluster, p *packet.Packet) {
	cl.Mesh.HCA(attacker).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
	cl.Sim.Run()
}

// forge seals a hand-built packet with a plain ICRC, as any HCA can, and
// injects it.
func forge(cl *core.Cluster, p *packet.Packet) {
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	inject(cl, p)
}

// PKeyTheft: the attacker captured a valid P_Key on the wire and injects
// a packet into the partition (Table 3: "Any user acquiring a P_Key of a
// partition can break membership restriction of the partition").
func PKeyTheft(seed int64) Outcome {
	run := func(withAuth bool) bool {
		cl := world(seed, transport.PartitionLevel)
		steal(cl)
		victim := cl.Endpoints[3].CreateUDQP(victimPKey, 0x42)
		victim.AuthRequired = withAuth
		received := false
		victim.OnRecv = func([]byte, packet.LID, packet.QPN) { received = true }

		// The attacker knows the stolen P_Key and the victim's Q_Key
		// (both plaintext on the wire) but has no secret key.
		forge(cl, &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(attacker), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: victimPKey, DestQP: victim.N, PSN: 1},
			DETH:    &packet.DETH{QKey: victim.QKey, SrcQP: 9},
			Payload: []byte("intruder in your partition"),
		})
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
		cl := world(seed, transport.PartitionLevel)
		steal(cl)
		victim := cl.Endpoints[3].CreateUDQP(victimPKey, 0xFEED)
		victim.AuthRequired = withAuth
		hijacked := false
		victim.OnRecv = func([]byte, packet.LID, packet.QPN) { hijacked = true }

		forge(cl, &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(attacker), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: victimPKey, DestQP: victim.N, PSN: 7},
			DETH:    &packet.DETH{QKey: victim.QKey, SrcQP: 4}, // stolen Q_Key
			Payload: []byte("forged datagram"),
		})
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
		cl := world(seed, transport.QPLevel)
		steal(cl)
		victimQP := cl.Endpoints[3].CreateRCQP(victimPKey)
		victimQP.AuthRequired = withAuth
		region := cl.Endpoints[3].RegisterMemory(128)
		copy(region.Data, []byte("precious data"))

		// Legitimate peer (node 0) establishes the RC connection the
		// attacker will try to piggyback on.
		legit := cl.Endpoints[0].CreateRCQP(victimPKey)
		legit.AuthRequired = withAuth
		cl.Endpoints[0].ConnectRC(legit, topology.LIDOf(3), victimQP.N, nil)
		cl.Sim.Run()

		// Attacker forges an RDMA write using the stolen R_Key,
		// spoofing the legitimate peer's LID and QP so the packet
		// matches the victim QP's connection state, and using the next
		// expected PSN (PSNs, like keys, are plaintext on the wire).
		forge(cl, &packet.Packet{
			LRH:     packet.LRH{SLID: topology.LIDOf(0), DLID: topology.LIDOf(3)},
			BTH:     packet.BTH{OpCode: packet.RCRDMAWriteOnly, PKey: victimPKey, DestQP: victimQP.N, PSN: 0},
			RETH:    &packet.RETH{VA: region.VA, RKey: region.RKey, DMALen: 9},
			Payload: []byte("corrupted"),
		})
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
	// Plain IBA: an attacker who sniffed the plaintext M_Key succeeds.
	cl := world(seed, transport.PartitionLevel)
	plain := cl.SM.CreatePartition(cl.Cfg.SM.MKey, packet.PKey(0x8099), []int{0, attacker}) == nil

	// With encrypted key distribution the M_Key never appears on the
	// wire; the attacker is reduced to guessing.
	cl = world(seed, transport.PartitionLevel)
	auth := cl.SM.CreatePartition(keys.MKey(0xDEAD), packet.PKey(0x8099), []int{0, attacker}) == nil

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
		cl := world(seed, transport.PartitionLevel)
		src, dst := cl.Endpoints[0], cl.Endpoints[3]
		sq := src.CreateUDQP(victimPKey, 0)
		dq := dst.CreateUDQP(victimPKey, 0x42)
		sq.AuthRequired, dq.AuthRequired = true, true
		dq.ReplayProtect = replayProtect
		deliveries := 0
		dq.OnRecv = func([]byte, packet.LID, packet.QPN) { deliveries++ }

		// Capture the signed packet in flight.
		var captured *packet.Packet
		hca := cl.Mesh.HCA(3)
		inner := hca.OnDeliver
		hca.OnDeliver = func(d *fabric.Delivery) {
			if captured == nil && d.Pkt.BTH.DestQP == dq.N {
				captured = d.Pkt.Clone()
			}
			inner(d)
		}
		if err := src.SendUD(sq, topology.LIDOf(3), dq.N, dq.QKey, []byte("wire $100"), fabric.ClassBestEffort); err != nil {
			panic(err)
		}
		cl.Sim.Run()
		// Replay verbatim from the attacker's position.
		inject(cl, captured)
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
