package sm

import (
	"math/rand"
	"testing"

	"ibasec/internal/enforce"
	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/keys"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

const testPKey = packet.PKey(0x8003)

type rig struct {
	s    *sim.Simulator
	mesh *topology.Mesh
	f    *enforce.Filter
	m    *SubnetManager
}

func newRig(t *testing.T, mode enforce.Mode) *rig {
	t.Helper()
	params := fabric.DefaultParams()
	s := sim.New()
	mesh := topology.NewMesh(s, params, 4, 4)
	var f *enforce.Filter
	if mode != enforce.NoFiltering {
		f = enforce.NewFilter(mode, params)
		mesh.SetFilterAll(f)
	}
	cfg := DefaultConfig()
	cfg.AutoDisablePeriod = 0 // tests drive timers explicitly
	m := New(s, mesh, f, cfg)
	// SM receives management packets at node 0.
	mesh.HCA(cfg.Node).OnDeliver = func(d *fabric.Delivery) { m.HandleManagement(d) }
	return &rig{s: s, mesh: mesh, f: f, m: m}
}

func (r *rig) sendData(src, dst int, pk packet.PKey, attack bool) {
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: topology.LIDOf(src), DLID: topology.LIDOf(dst)},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1},
		DETH: &packet.DETH{QKey: 1, SrcQP: 1},
	}
	p.Payload = make([]byte, 64)
	if err := icrc.Seal(p); err != nil {
		panic(err)
	}
	r.mesh.HCA(src).Send(&fabric.Delivery{
		Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort, Attack: attack,
	})
}

func TestMKeyGuard(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	good := DefaultConfig().MKey
	if err := r.m.CheckMKey(good); err != nil {
		t.Fatal(err)
	}
	if err := r.m.CheckMKey(good + 1); err == nil {
		t.Fatal("wrong M_Key accepted")
	}
	if r.m.Counters.Value(SMMKeyViolations) != 1 {
		t.Fatal("violation not counted")
	}
	if err := r.m.CreatePartition(good+1, testPKey, []int{0, 1}); err == nil {
		t.Fatal("partition created with wrong M_Key")
	}
}

func TestCreatePartitionProgramsHCAs(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	mkey := DefaultConfig().MKey
	if err := r.m.CreatePartition(mkey, testPKey, []int{1, 5, 9}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 9} {
		if !r.mesh.HCA(n).PKeyTable.Check(testPKey) {
			t.Fatalf("node %d missing P_Key", n)
		}
	}
	if r.mesh.HCA(2).PKeyTable.Check(testPKey) {
		t.Fatal("non-member has P_Key")
	}
	got := r.m.Members(testPKey)
	if len(got) != 3 || got[0] != 1 || got[2] != 9 {
		t.Fatalf("Members = %v", got)
	}
	if err := r.m.CreatePartition(mkey, testPKey, []int{99}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestCreatePartitionDistributesSecrets(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	rng := rand.New(rand.NewSource(2))
	r.m.Authority = keys.NewPartitionAuthority(rng)
	installed := map[int]keys.SecretKey{}
	r.m.InstallSecret = func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32) {
		installed[node] = k
	}
	if err := r.m.CreatePartition(DefaultConfig().MKey, testPKey, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(installed) != 2 || installed[2] != installed[3] {
		t.Fatalf("secret distribution wrong: %v", installed)
	}
	if installed[2] == (keys.SecretKey{}) {
		t.Fatal("zero secret distributed")
	}
}

func TestProgramSwitchTablesIF(t *testing.T) {
	r := newRig(t, enforce.IF)
	mkey := DefaultConfig().MKey
	if err := r.m.CreatePartition(mkey, testPKey, []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	r.m.ProgramSwitchTables()

	// Member 3's traffic passes its ingress switch; non-member 4's
	// same-P_Key traffic is dropped at ingress.
	delivered := 0
	r.mesh.HCA(7).OnDeliver = func(d *fabric.Delivery) { delivered++ }
	r.sendData(3, 7, testPKey, false)
	r.sendData(4, 7, testPKey, true) // 4 is not a member: spoofed P_Key
	r.s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.f.Dropped)
	}
}

func TestProgramSwitchTablesDPT(t *testing.T) {
	r := newRig(t, enforce.DPT)
	mkey := DefaultConfig().MKey
	if err := r.m.CreatePartition(mkey, testPKey, []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	r.m.ProgramSwitchTables()
	delivered := 0
	r.mesh.HCA(7).OnDeliver = func(d *fabric.Delivery) { delivered++ }
	r.sendData(3, 7, testPKey, false)
	r.sendData(3, 7, packet.PKey(0x4444), true)
	r.s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.f.Dropped)
	}
}

// End-to-end SIF control loop: attack -> victim trap -> SM -> ingress
// switch registration -> subsequent attack packets dropped at ingress.
func TestSIFControlLoop(t *testing.T) {
	r := newRig(t, enforce.SIF)
	mkey := DefaultConfig().MKey
	if err := r.m.CreatePartition(mkey, testPKey, []int{3, 7}); err != nil {
		t.Fatal(err)
	}
	r.m.ProgramSwitchTables()
	r.m.AttachTraps()

	bad := packet.PKey(0x5555)
	attackerSwitch := r.mesh.SwitchOf(4)

	// First attack packet reaches the victim (SIF inactive), triggering
	// the trap.
	r.sendData(4, 7, bad, true)
	r.s.Run()
	if r.m.Counters.Value(SMTrapsSent) != 1 {
		t.Fatalf("traps_sent = %d", r.m.Counters.Value(SMTrapsSent))
	}
	if r.m.Counters.Value(SMTrapsReceived) != 1 {
		t.Fatalf("traps_received = %d", r.m.Counters.Value(SMTrapsReceived))
	}
	if r.m.Counters.Value(SMSIFRegistrations) != 1 {
		t.Fatalf("sif_registrations = %d", r.m.Counters.Value(SMSIFRegistrations))
	}
	if !r.f.Active(attackerSwitch) {
		t.Fatal("ingress switch not activated")
	}

	// Second attack packet dies at the attacker's ingress switch.
	before := r.mesh.HCA(7).PKeyViolations()
	r.sendData(4, 7, bad, true)
	r.s.Run()
	if r.f.Dropped != 1 {
		t.Fatalf("Dropped = %d", r.f.Dropped)
	}
	if r.mesh.HCA(7).PKeyViolations() != before {
		t.Fatal("attack packet still reached victim after registration")
	}
}

func TestTrapSuppression(t *testing.T) {
	r := newRig(t, enforce.SIF)
	mkey := DefaultConfig().MKey
	r.m.CreatePartition(mkey, testPKey, []int{3, 7})
	r.m.ProgramSwitchTables()
	r.m.AttachTraps()

	bad := packet.PKey(0x5555)
	// Two identical violations in quick succession: only one trap. Use
	// a victim other than the registration path so both arrive before
	// SIF engages... send both before running.
	r.sendData(4, 7, bad, true)
	r.sendData(4, 7, bad, true)
	r.s.Run()
	if sent := r.m.Counters.Value(SMTrapsSent); sent != 1 {
		t.Fatalf("traps_sent = %d, want 1 (suppression)", sent)
	}
	if r.m.Counters.Value(SMTrapsSuppressed) != 1 {
		t.Fatalf("traps_suppressed = %d", r.m.Counters.Value(SMTrapsSuppressed))
	}
}

// A violation observed at the SM's own node must not require fabric
// transit.
func TestLocalTrap(t *testing.T) {
	r := newRig(t, enforce.SIF)
	mkey := DefaultConfig().MKey
	r.m.CreatePartition(mkey, testPKey, []int{0, 7})
	r.m.ProgramSwitchTables()
	r.m.AttachTraps()

	r.sendData(4, 0, packet.PKey(0x5555), true) // attack the SM node
	r.s.Run()
	if r.m.Counters.Value(SMSIFRegistrations) != 1 {
		t.Fatal("local trap not processed")
	}
	if !r.f.Active(r.mesh.SwitchOf(4)) {
		t.Fatal("attacker switch not activated via local trap")
	}
}

// The SM is a serial processor: a burst of traps is handled one
// processingDelay at a time (the management-DoS exposure of section 7).
func TestSMSerialProcessing(t *testing.T) {
	r := newRig(t, enforce.SIF)
	mkey := DefaultConfig().MKey
	r.m.CreatePartition(mkey, testPKey, []int{3, 7})
	r.m.ProgramSwitchTables()
	r.m.AttachTraps()

	// Distinct (offender, P_Key) pairs so suppression doesn't collapse
	// them.
	for i := 0; i < 4; i++ {
		r.sendData(4+i, 7, packet.PKey(0x6000+uint16(i)), true)
	}
	start := r.s.Now()
	r.s.Run()
	elapsed := r.s.Now() - start
	minimum := 4 * processingDelay
	if elapsed < minimum {
		t.Fatalf("4 traps handled in %v, less than serial minimum %v", elapsed, minimum)
	}
	if r.m.Counters.Value(SMSIFRegistrations) != 4 {
		t.Fatalf("registrations = %d", r.m.Counters.Value(SMSIFRegistrations))
	}
}

func TestHandleManagementRejectsNonTraps(t *testing.T) {
	r := newRig(t, enforce.SIF)
	p := &packet.Packet{
		LRH:  packet.LRH{SLID: 2, DLID: 1},
		BTH:  packet.BTH{OpCode: packet.UDSendOnly, PKey: 0xFFFF, DestQP: 5},
		DETH: &packet.DETH{QKey: 0, SrcQP: 0},
	}
	p.Payload = []byte{9, 9, 9, 9, 9}
	icrc.Seal(p)
	if r.m.HandleManagement(&fabric.Delivery{Pkt: p}) {
		t.Fatal("consumed packet for wrong QP")
	}
	p.BTH.DestQP = 0
	p.Payload = []byte{42, 0, 0, 0, 0} // unknown trap type
	icrc.Seal(p)
	if r.m.HandleManagement(&fabric.Delivery{Pkt: p}) {
		t.Fatal("consumed unknown trap type")
	}
}

func TestRemoveFromPartitionRotatesSecret(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	rng := rand.New(rand.NewSource(4))
	r.m.Authority = keys.NewPartitionAuthority(rng)
	installed := map[int]keys.SecretKey{}
	r.m.InstallSecret = func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32) { installed[node] = k }
	mkey := DefaultConfig().MKey
	if err := r.m.CreatePartition(mkey, testPKey, []int{2, 3, 5}); err != nil {
		t.Fatal(err)
	}
	old := installed[2]

	if err := r.m.RemoveFromPartition(mkey, testPKey, 3); err != nil {
		t.Fatal(err)
	}
	// Evicted node: no P_Key, keeps only the stale secret.
	if r.mesh.HCA(3).PKeyTable.Check(testPKey) {
		t.Fatal("evicted node still holds the P_Key")
	}
	if got := r.m.Members(testPKey); len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
	// Remaining members got a fresh secret the evicted node never saw.
	if installed[2] == old {
		t.Fatal("secret not rotated")
	}
	if installed[2] != installed[5] {
		t.Fatal("remaining members diverged")
	}
	if installed[3] == installed[2] {
		t.Fatal("evicted node received the fresh secret")
	}

	// Guard rails.
	if err := r.m.RemoveFromPartition(mkey, testPKey, 3); err == nil {
		t.Fatal("double removal accepted")
	}
	if err := r.m.RemoveFromPartition(mkey+1, testPKey, 2); err == nil {
		t.Fatal("wrong M_Key accepted")
	}
	if r.m.Counters.Value(SMSecretsRotated) != 1 {
		t.Fatalf("rotations = %d", r.m.Counters.Value(SMSecretsRotated))
	}
}

// Full revocation story at the transport level: after eviction and
// rotation, the evicted node's signed packets fail verification.
func TestEvictedNodeCannotAuthenticate(t *testing.T) {
	r := newRig(t, enforce.NoFiltering)
	rng := rand.New(rand.NewSource(5))
	r.m.Authority = keys.NewPartitionAuthority(rng)
	secrets := map[int]keys.SecretKey{}
	r.m.InstallSecret = func(node int, pk packet.PKey, k keys.SecretKey, epoch uint32) { secrets[node] = k }
	mkey := DefaultConfig().MKey
	r.m.CreatePartition(mkey, testPKey, []int{1, 4})
	r.m.RemoveFromPartition(mkey, testPKey, 4)

	// Node 4 still knows the old secret; node 1 has the rotated one.
	if secrets[4] == secrets[1] {
		t.Fatal("rotation did not separate the keys")
	}
}
