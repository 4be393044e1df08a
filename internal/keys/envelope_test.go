package keys

import (
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
}

func TestPartitionAuthority(t *testing.T) {
	auth := NewPartitionAuthority(testRNG())
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
