package keys

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"ibasec/internal/packet"
)

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
	if len(env.Ciphertext) != EnvelopeSize {
		t.Fatalf("envelope of %d bytes, want %d", len(env.Ciphertext), EnvelopeSize)
	}
}

// TestEnvelopeSeeded holds node keys and envelopes to their stream: the
// same seed gives the same key pair and the same envelope bytes, and
// each takes exactly 32 bytes of it.
func TestEnvelopeSeeded(t *testing.T) {
	run := func() ([]byte, []byte, int64) {
		rng := testRNG()
		kp, err := GenerateNodeKeyPair(rng)
		if err != nil {
			t.Fatal(err)
		}
		env, err := Seal(rng, kp.Public(), SecretKey{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return kp.Public().Bytes(), env.Ciphertext, rng.Int63()
	}
	pub1, env1, next1 := run()
	pub2, env2, next2 := run()
	if !bytes.Equal(pub1, pub2) || !bytes.Equal(env1, env2) || next1 != next2 {
		t.Fatal("the same seed gave different keys, envelopes or stream positions")
	}
	rng := testRNG()
	var skip [64]byte
	rng.Read(skip[:])
	if next1 != rng.Int63() {
		t.Fatal("a key pair and an envelope did not read 64 bytes of the stream")
	}
}

// TestHKDFVector checks hkdfSHA256 against RFC 5869's test case 3 (empty
// salt and info), whose output's first 32 bytes are one HKDF block.
func TestHKDFVector(t *testing.T) {
	got := hkdfSHA256(bytes.Repeat([]byte{0x0b}, 22), nil)
	want := "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
	if hex.EncodeToString(got) != want {
		t.Fatalf("HKDF-SHA256 = %x, want %s", got, want)
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
	for _, at := range []int{10, 60, EnvelopeSize - 1} {
		bad := Envelope{Ciphertext: bytes.Clone(env.Ciphertext)}
		bad.Ciphertext[at] ^= 1
		if _, err := kp.Open(bad); err == nil {
			t.Fatalf("envelope with byte %d flipped opened", at)
		}
	}
}

// FuzzEnvelope feeds Open truncated, bit-flipped, over-long,
// wrong-recipient and arbitrary envelopes: each must return an error,
// never a secret and never a panic, while the envelope as sealed opens.
func FuzzEnvelope(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), []byte(nil))
	f.Add(int64(2), uint8(0), uint16(127), []byte(nil))
	f.Add(int64(3), uint8(1), uint16(1000), []byte(nil))
	f.Add(int64(4), uint8(2), uint16(0), []byte{0})
	f.Add(int64(5), uint8(3), uint16(0), []byte(nil))
	f.Add(int64(6), uint8(4), uint16(0), make([]byte, EnvelopeSize))
	f.Fuzz(func(t *testing.T, seed int64, op uint8, pos uint16, tail []byte) {
		rng := rand.New(rand.NewSource(seed))
		kp, _ := GenerateNodeKeyPair(rng)
		other, _ := GenerateNodeKeyPair(rng)
		secret, _ := NewSecretKey(rng)
		env, err := Seal(rng, kp.Public(), secret)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := kp.Open(env); err != nil || got != secret {
			t.Fatalf("the envelope as sealed: %v", err)
		}
		ct, opener := bytes.Clone(env.Ciphertext), kp
		var what string
		switch op % 5 {
		case 0:
			ct, what = ct[:int(pos)%EnvelopeSize], "truncated"
		case 1:
			ct[int(pos)%(8*EnvelopeSize)/8] ^= 1 << (pos % 8)
			what = "bit-flipped"
		case 2:
			ct, what = append(ct, append(tail, 0)...), "over-long"
		case 3:
			opener, what = other, "wrong-recipient"
		case 4:
			if bytes.Equal(tail, env.Ciphertext) {
				return
			}
			ct, what = tail, "arbitrary"
		}
		if _, err := opener.Open(Envelope{Ciphertext: ct}); err == nil {
			t.Fatalf("a %s envelope opened", what)
		}
	})
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
