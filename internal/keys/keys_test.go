package keys

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"ibasec/internal/packet"
)

func TestSecretKeyGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k1, err := NewSecretKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewSecretKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("two generated keys identical")
	}
	if k1 == (SecretKey{}) {
		t.Fatal("generated key is all zeros")
	}
}

func TestPartitionTableBasics(t *testing.T) {
	pt := NewPartitionTable(0)
	full := packet.PKey(0x8010)
	if pt.Check(full) {
		t.Fatal("empty table accepted a P_Key")
	}
	if err := pt.Add(full); err != nil {
		t.Fatal(err)
	}
	if !pt.Check(full) {
		t.Fatal("member P_Key rejected")
	}
	if pt.Check(packet.PKey(0x8011)) {
		t.Fatal("non-member accepted")
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d", pt.Len())
	}
	pt.Remove(full)
	if pt.Check(full) {
		t.Fatal("removed key still accepted")
	}
}

// IBA 10.9.3: a limited-member packet is accepted only by a full member
// (two limited members must not communicate).
func TestPartitionMembershipRules(t *testing.T) {
	base := uint16(0x0123)
	fullKey := packet.PKey(0x8000 | base)
	limKey := packet.PKey(base)

	fullTable := NewPartitionTable(0)
	if err := fullTable.Add(fullKey); err != nil {
		t.Fatal(err)
	}
	limTable := NewPartitionTable(0)
	if err := limTable.Add(limKey); err != nil {
		t.Fatal(err)
	}

	if !fullTable.Check(limKey) {
		t.Fatal("full member rejected limited sender")
	}
	if !fullTable.Check(fullKey) {
		t.Fatal("full member rejected full sender")
	}
	if !limTable.Check(fullKey) {
		t.Fatal("limited member rejected full sender")
	}
	if limTable.Check(limKey) {
		t.Fatal("two limited members allowed to communicate")
	}
}

func TestPartitionTableLimit(t *testing.T) {
	pt := NewPartitionTable(2)
	if err := pt.Add(packet.PKey(0x8001)); err != nil {
		t.Fatal(err)
	}
	if err := pt.Add(packet.PKey(0x8002)); err != nil {
		t.Fatal(err)
	}
	if err := pt.Add(packet.PKey(0x8003)); err == nil {
		t.Fatal("exceeded configured limit")
	}
	// Overwriting an existing base value is allowed at the limit.
	if err := pt.Add(packet.PKey(0x0001)); err != nil {
		t.Fatalf("membership update rejected: %v", err)
	}
	if pt.Check(packet.PKey(0x0001)) {
		t.Fatal("limited+limited accepted after membership downgrade")
	}
}

func TestPartitionTableDefaultLimit(t *testing.T) {
	pt := NewPartitionTable(-1)
	if pt.limit != MaxPKeysPerPort {
		t.Fatalf("default limit = %d", pt.limit)
	}
}

func TestKeysSorted(t *testing.T) {
	pt := NewPartitionTable(0)
	for _, v := range []uint16{0x300, 0x100, 0x200} {
		pt.Add(packet.PKey(0x8000 | v))
	}
	ks := pt.Keys()
	if len(ks) != 3 || ks[0].Base() != 0x100 || ks[2].Base() != 0x300 {
		t.Fatalf("Keys = %v", ks)
	}
}

// Property: a table accepts exactly the base values added to it (with a
// full-member entry, membership bits don't matter).
func TestPropertyTableMembership(t *testing.T) {
	f := func(added []uint16, probes []uint16) bool {
		pt := NewPartitionTable(0)
		in := map[uint16]bool{}
		for _, a := range added {
			if err := pt.Add(packet.PKey(0x8000 | a&0x7FFF)); err != nil {
				return false
			}
			in[a&0x7FFF] = true
		}
		for _, p := range probes {
			if pt.Check(packet.PKey(p)) != in[packet.PKey(p).Base()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPartitionTable runs an arbitrary sequence of Add, Remove and Check
// against a map reference: an Add of a known base overwrites its
// membership bit even at the limit, an Add of a new base past the limit
// fails with ErrTableFull and changes nothing, Check accepts exactly a
// known base where the packet or the entry is a full member, and after
// every step the table holds the reference's entries ascending by base.
// Each op is three bytes — op, P_Key — with the base narrowed to 128
// values so overwrites, removals of present keys and a full table are
// common; limit is 1 to 16.
func FuzzPartitionTable(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0x80, 0x01, 0, 0x80, 0x02, 0, 0x80, 0x03, 0, 0x00, 0x01, 2, 0x00, 0x01, 2, 0x80, 0x03})
	f.Add(uint8(1), []byte{0, 0x00, 0x05, 2, 0x00, 0x05, 0, 0x80, 0x05, 2, 0x00, 0x05, 1, 0x00, 0x05, 2, 0x80, 0x05})
	f.Add(uint8(15), []byte{0, 0xF0, 0x0F, 0, 0x10, 0x01, 0, 0x80, 0x00, 1, 0x10, 0x01, 2, 0x70, 0x0F})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		pt := NewPartitionTable(int(limit%16) + 1)
		ref := map[uint16]packet.PKey{}
		for ; len(ops) >= 3; ops = ops[3:] {
			k := packet.PKey(uint16(ops[1])<<8|uint16(ops[2])) & 0xF00F
			old, known := ref[k.Base()]
			switch ops[0] % 3 {
			case 0:
				err := pt.Add(k)
				switch {
				case known || len(ref) < pt.limit:
					if err != nil {
						t.Fatalf("Add(%#04x) with %d of %d entries: %v", k, len(ref), pt.limit, err)
					}
					ref[k.Base()] = k
				case !errors.Is(err, ErrTableFull):
					t.Fatalf("Add(%#04x) to a full table: err = %v, want ErrTableFull", k, err)
				}
			case 1:
				pt.Remove(k)
				delete(ref, k.Base())
			case 2:
				if got, want := pt.Check(k), known && (k.Full() || old.Full()); got != want {
					t.Fatalf("Check(%#04x) = %v against entry %#04x (present %v), want %v", k, got, old, known, want)
				}
			}
			keys := pt.Keys()
			if pt.Len() != len(ref) || len(keys) != len(ref) {
				t.Fatalf("%d entries (Len %d), reference holds %d", len(keys), pt.Len(), len(ref))
			}
			for i, e := range keys {
				if ref[e.Base()] != e || i > 0 && keys[i-1].Base() >= e.Base() {
					t.Fatalf("entries %#04x: not the reference %v in ascending base order", keys, ref)
				}
			}
		}
	})
}

// TestPartitionTableCheckAllocs holds the per-packet P_Key check, which
// every delivering HCA and every filtering switch runs, to no allocation.
func TestPartitionTableCheckAllocs(t *testing.T) {
	pt := NewPartitionTable(0)
	for _, b := range []uint16{0x300, 0x100, 0x200} {
		if err := pt.Add(packet.PKey(0x8000 | b)); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if !pt.Check(0x0200) || pt.Check(0x0400) {
			t.Fatal("wrong verdict")
		}
	}); n != 0 {
		t.Errorf("Check allocated %.0f times, want 0", n)
	}
}

func TestNonceUniqueness(t *testing.T) {
	seen := map[uint64]bool{}
	for src := packet.QPN(0); src < 4; src++ {
		for dst := packet.QPN(0); dst < 4; dst++ {
			for psn := uint32(0); psn < 64; psn++ {
				n := Nonce(src, dst, psn)
				if seen[n] {
					t.Fatalf("nonce collision at src=%d dst=%d psn=%d", src, dst, psn)
				}
				seen[n] = true
			}
		}
	}
}

func TestNonceFieldSeparation(t *testing.T) {
	if Nonce(1, 0, 0) == Nonce(0, 1, 0) || Nonce(0, 1, 0) == Nonce(0, 0, 1) {
		t.Fatal("nonce fields alias")
	}
}

func TestStorePartitionSecrets(t *testing.T) {
	s := NewStore()
	var k SecretKey
	k[0] = 0xAA
	s.InstallPartitionSecret(packet.PKey(0x8005), k)
	// Lookup must ignore the membership bit.
	got, ok := s.PartitionSecret(packet.PKey(0x0005))
	if !ok || *got != k {
		t.Fatalf("PartitionSecret = %v, %v", got, ok)
	}
	if _, ok := s.PartitionSecret(packet.PKey(0x0006)); ok {
		t.Fatal("secret for unknown partition")
	}
}

func TestStoreQPSecrets(t *testing.T) {
	s := NewStore()
	var kA, kB SecretKey
	kA[0], kB[0] = 1, 2
	// One Q_Key, two requesters with distinct secrets — the paper's
	// Fig. 3 scenario (QP2 issues S_K2 to QP4 and S_K3 to QP5).
	s.InstallRecvQPSecret(packet.QKey(0x42), 7, 4, kA)
	s.InstallRecvQPSecret(packet.QKey(0x42), 7, 5, kB)
	if got, ok := s.RecvQPSecret(packet.QKey(0x42), 7, 4); !ok || *got != kA {
		t.Fatal("recv secret for QP4 wrong")
	}
	if got, ok := s.RecvQPSecret(packet.QKey(0x42), 7, 5); !ok || *got != kB {
		t.Fatal("recv secret for QP5 wrong")
	}
	if _, ok := s.RecvQPSecret(packet.QKey(0x42), 7, 6); ok {
		t.Fatal("secret for unknown source QP")
	}

	s.InstallSendQPSecret(4, 9, 2, kA)
	if got, ok := s.SendQPSecret(4, 9, 2); !ok || *got != kA {
		t.Fatal("send secret wrong")
	}
	if _, ok := s.SendQPSecret(2, 9, 4); ok {
		t.Fatal("send secret index must be directional")
	}

	p, r, snd := s.Counts()
	if p != 0 || r != 2 || snd != 1 {
		t.Fatalf("Counts = %d,%d,%d", p, r, snd)
	}
}

func TestStoreEpochLifecycle(t *testing.T) {
	s := NewStore()
	var k0, k1, k2 SecretKey
	k0[0], k1[0], k2[0] = 1, 2, 3
	pk := packet.PKey(0x8005)

	s.InstallPartitionEpoch(pk, 0, k0)
	s.InstallPartitionEpoch(pk, 1, k1)

	// Current moved to epoch 1; epoch 0 is held for the grace window.
	if got, _ := s.PartitionSecret(pk); *got != k1 {
		t.Fatal("current secret not at epoch 1")
	}
	if e, ok := s.PartitionEpoch(pk); !ok || e != 1 {
		t.Fatalf("PartitionEpoch = %d, %v", e, ok)
	}
	cur, prev, ok := s.PartitionVerifyKeys(pk)
	if !ok || cur.Epoch != 1 || cur.Key != k1 || prev == nil || prev.Epoch != 0 || prev.Key != k0 {
		t.Fatalf("verify keys = %+v / %+v", cur, prev)
	}
	if retired := s.RetiredPartitionKeys(pk); len(retired) != 0 {
		t.Fatal("retired key before retirement")
	}

	// Retirement ends the grace window and leaves a tombstone, so a
	// receiver can tell "signed under a dead epoch" from a forgery.
	if !s.RetirePartitionEpoch(pk, 0) {
		t.Fatal("retire of grace epoch refused")
	}
	if _, prev, _ := s.PartitionVerifyKeys(pk); prev != nil {
		t.Fatal("grace key survived retirement")
	}
	if rk := s.RetiredPartitionKeys(pk); len(rk) != 1 || rk[0].Epoch != 0 || rk[0].Key != k0 {
		t.Fatalf("tombstones = %+v", rk)
	}

	// Stale installs (duplicate or out-of-order distribution) are ignored.
	s.InstallPartitionEpoch(pk, 0, k0)
	if e, _ := s.PartitionEpoch(pk); e != 1 {
		t.Fatal("older epoch overwrote current")
	}
	// Same-epoch reinstall refreshes the key without shifting epochs.
	s.InstallPartitionEpoch(pk, 1, k2)
	if got, _ := s.PartitionSecret(pk); *got != k2 {
		t.Fatal("same-epoch reinstall ignored")
	}
}

// TestStoreRetireEpochBoundary pins the retire comparison at its exact
// boundary: a retire naming an epoch *below* the grace-window key must
// leave the window open (a stale retire MAD must not kill a newer
// grace key), while a retire naming exactly the grace epoch closes it.
func TestStoreRetireEpochBoundary(t *testing.T) {
	s := NewStore()
	var k0, k1, k2 SecretKey
	k0[0], k1[0], k2[0] = 1, 2, 3
	pk := packet.PKey(0x8006)
	s.InstallPartitionEpoch(pk, 0, k0)
	s.InstallPartitionEpoch(pk, 1, k1)
	s.InstallPartitionEpoch(pk, 2, k2) // grace window now holds epoch 1

	if s.RetirePartitionEpoch(pk, 0) {
		t.Fatal("retire below the grace epoch closed the window")
	}
	if _, prev, _ := s.PartitionVerifyKeys(pk); prev == nil || prev.Epoch != 1 {
		t.Fatalf("grace window disturbed by stale retire: %+v", prev)
	}
	if !s.RetirePartitionEpoch(pk, 1) {
		t.Fatal("retire at exactly the grace epoch refused")
	}
	if _, prev, _ := s.PartitionVerifyKeys(pk); prev != nil {
		t.Fatal("grace window open after boundary retire")
	}
	if rk := s.RetiredPartitionKeys(pk); len(rk) != 1 || rk[0].Epoch != 1 || rk[0].Key != k1 {
		t.Fatalf("tombstones = %+v", rk)
	}
	// With the window already closed there is nothing left to retire.
	if s.RetirePartitionEpoch(pk, 2) {
		t.Fatal("empty grace window reported a retire")
	}
}

func TestStoreRetireOnlyAfterRollover(t *testing.T) {
	s := NewStore()
	var k SecretKey
	k[0] = 9
	pk := packet.PKey(0x8003)
	s.InstallPartitionEpoch(pk, 0, k)
	// Nothing in grace yet: a retire for a future epoch must not touch
	// the current key.
	if s.RetirePartitionEpoch(pk, 0) {
		t.Fatal("retired with no grace-window key held")
	}
	if got, ok := s.PartitionSecret(pk); !ok || *got != k {
		t.Fatal("current key lost by early retire")
	}
}

func TestStoreWipes(t *testing.T) {
	s := NewStore()
	var k SecretKey
	k[0] = 7
	pk := packet.PKey(0x8002)
	s.InstallPartitionEpoch(pk, 0, k)
	s.InstallPartitionEpoch(pk, 1, k)
	s.InstallRecvQPSecret(packet.QKey(0x42), 7, 4, k)
	s.InstallSendQPSecret(4, 9, 2, k)

	s.WipePartitionSecret(pk)
	if _, ok := s.PartitionSecret(pk); ok {
		t.Fatal("partition secret survived wipe")
	}
	if _, _, ok := s.PartitionVerifyKeys(pk); ok {
		t.Fatal("verify keys survived wipe")
	}
	if n := s.WipeQPSecrets(); n != 2 {
		t.Fatalf("WipeQPSecrets = %d, want 2", n)
	}
	if _, ok := s.RecvQPSecret(packet.QKey(0x42), 7, 4); ok {
		t.Fatal("recv QP secret survived wipe")
	}
	if _, ok := s.SendQPSecret(4, 9, 2); ok {
		t.Fatal("send QP secret survived wipe")
	}
}
