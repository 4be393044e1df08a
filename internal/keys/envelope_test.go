package keys

import (
	"errors"
	"math/rand"
	"testing"

	"ibasec/internal/packet"
)

// Deterministic randomness for fast, reproducible RSA in tests.
func testRNG() *rand.Rand { return rand.New(rand.NewSource(1234)) }

func TestEnvelopeRoundTrip(t *testing.T) {
	rng := testRNG()
	kp, err := GenerateNodeKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	secret, err := NewSecretKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	env, err := Seal(rng, kp.Public(), secret)
	if err != nil {
		t.Fatal(err)
	}
	got, err := kp.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatal("opened secret differs")
	}
}

func TestEnvelopeWrongRecipient(t *testing.T) {
	rng := testRNG()
	alice, _ := GenerateNodeKeyPair(rng)
	eve, _ := GenerateNodeKeyPair(rng)
	secret, _ := NewSecretKey(rng)
	env, err := Seal(rng, alice.Public(), secret)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eve.Open(env); err == nil {
		t.Fatal("wrong private key opened the envelope")
	}
}

func TestEnvelopeTamperDetected(t *testing.T) {
	rng := testRNG()
	kp, _ := GenerateNodeKeyPair(rng)
	secret, _ := NewSecretKey(rng)
	env, _ := Seal(rng, kp.Public(), secret)
	env.Ciphertext[10] ^= 1
	if _, err := kp.Open(env); err == nil {
		t.Fatal("tampered envelope opened")
	}
}

func TestDirectory(t *testing.T) {
	rng := testRNG()
	d := NewDirectory()
	kp, _ := GenerateNodeKeyPair(rng)
	d.Register("node-3", kp.Public())
	if pub, ok := d.Lookup("node-3"); !ok || pub != kp.Public() {
		t.Fatal("lookup failed")
	}
	if _, ok := d.Lookup("node-9"); ok {
		t.Fatal("phantom node found")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
}

func TestPartitionAuthority(t *testing.T) {
	rng := testRNG()
	dir := NewDirectory()
	a, _ := GenerateNodeKeyPair(rng)
	b, _ := GenerateNodeKeyPair(rng)
	dir.Register("A", a.Public())
	dir.Register("B", b.Public())

	auth := NewPartitionAuthority(rng, dir)
	pk := packet.PKey(0x8042)

	s1, err := auth.EnsureSecret(pk)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := auth.EnsureSecret(pk)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("EnsureSecret not idempotent")
	}
	// The membership bit must not create a second partition secret.
	s3, _ := auth.EnsureSecret(packet.PKey(0x0042))
	if s3 != s1 {
		t.Fatal("limited-member P_Key produced a different secret")
	}

	envA, _, err := auth.EnvelopeForEpoch(pk, "A")
	if err != nil {
		t.Fatal(err)
	}
	envB, _, err := auth.EnvelopeForEpoch(pk, "B")
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := a.Open(envA)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := b.Open(envB)
	if err != nil {
		t.Fatal(err)
	}
	if gotA != s1 || gotB != s1 {
		t.Fatal("members decrypted different partition secrets")
	}

	if _, _, err := auth.EnvelopeForEpoch(pk, "unknown"); err == nil {
		t.Fatal("envelope for unknown node")
	}

	rotated, epoch, err := auth.RotateEpoch(pk)
	if err != nil {
		t.Fatal(err)
	}
	if rotated == s1 || epoch != 1 {
		t.Fatalf("RotateEpoch returned the old secret or epoch %d", epoch)
	}
	now, _ := auth.EnsureSecret(pk)
	if now != rotated {
		t.Fatal("EnsureSecret ignored rotation")
	}
}

func TestIssueQPSecret(t *testing.T) {
	rng := testRNG()
	dir := NewDirectory()
	req, _ := GenerateNodeKeyPair(rng)
	dir.Register("requester", req.Public())

	secret, env, err := IssueQPSecret(rng, dir, "requester")
	if err != nil {
		t.Fatal(err)
	}
	got, err := req.Open(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatal("requester decrypted a different secret")
	}
	if _, _, err := IssueQPSecret(rng, dir, "stranger"); err == nil {
		t.Fatal("issued to unknown node")
	}
}

func TestEpochEnvelopeRoundTrip(t *testing.T) {
	rng := testRNG()
	kp, _ := GenerateNodeKeyPair(rng)
	secret, _ := NewSecretKey(rng)
	env, err := SealEpoch(rng, kp.Public(), secret, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, epoch, err := kp.OpenEpoch(env)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret || epoch != 7 {
		t.Fatalf("opened %v epoch %d", got, epoch)
	}
}

// TestOpenerTamperVsReplayCounters is the ISSUE's distribution-path fault
// drill: a bit-flipped epoch-e+1 envelope must be rejected as tampering,
// a replayed retired epoch-e envelope as a replay, and the two outcomes
// must land on distinct error counters.
func TestOpenerTamperVsReplayCounters(t *testing.T) {
	rng := testRNG()
	kp, _ := GenerateNodeKeyPair(rng)
	o := NewEnvelopeOpener(kp)
	const pkBase = uint16(5)

	sE, _ := NewSecretKey(rng)
	envE, _ := SealEpoch(rng, kp.Public(), sE, 1)
	sE1, _ := NewSecretKey(rng)
	envE1, _ := SealEpoch(rng, kp.Public(), sE1, 2)

	// Normal rollover: epoch e then e+1 both open.
	for i, env := range []Envelope{envE, envE1} {
		if _, _, err := o.Open(pkBase, env); err != nil {
			t.Fatalf("envelope %d rejected: %v", i, err)
		}
	}

	// Bit-flip the fresh e+1 envelope in flight.
	bad := Envelope{Ciphertext: append([]byte(nil), envE1.Ciphertext...)}
	bad.Ciphertext[11] ^= 0x80
	if _, _, err := o.Open(pkBase, bad); !errors.Is(err, ErrEnvelopeTampered) {
		t.Fatalf("tampered envelope: err = %v", err)
	}

	// Epoch e retires; an attacker replays its captured envelope.
	o.Retire(pkBase, 2)
	if _, _, err := o.Open(pkBase, envE); !errors.Is(err, ErrEnvelopeReplayed) {
		t.Fatalf("replayed envelope: err = %v", err)
	}
	// But the same retirement must not block the live epoch, nor leak
	// into other partitions.
	if _, _, err := o.Open(pkBase, envE1); err != nil {
		t.Fatalf("live epoch rejected after retire: %v", err)
	}
	if _, _, err := o.Open(pkBase+1, envE); err != nil {
		t.Fatalf("retirement leaked across partitions: %v", err)
	}

	for id, want := range map[EnvelopeCounter]uint64{
		EnvelopeTampered: 1,
		EnvelopeReplayed: 1,
		EnvelopeOpened:   4,
	} {
		if got := o.Counters.Value(id); got != want {
			t.Fatalf("%s = %d, want %d", envelopeCounters.Names[id], got, want)
		}
	}
}

func TestEnvelopeForEpochFeedsOpener(t *testing.T) {
	rng := testRNG()
	kp, _ := GenerateNodeKeyPair(rng)
	dir := NewDirectory()
	dir.Register("node3", kp.Public())
	a := NewPartitionAuthority(rng, dir)
	pk := packet.PKey(0x8004)
	if _, err := a.EnsureSecret(pk); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.RotateEpoch(pk); err != nil {
		t.Fatal(err)
	}

	env, epoch, err := a.EnvelopeForEpoch(pk, "node3")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("authority epoch = %d, want 1 after one rotation", epoch)
	}
	o := NewEnvelopeOpener(kp)
	got, gotEpoch, err := o.Open(pk.Base(), env)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.EnsureSecret(pk)
	if got != want || gotEpoch != 1 {
		t.Fatalf("opened secret/epoch mismatch: epoch %d", gotEpoch)
	}
}
