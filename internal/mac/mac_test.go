package mac

import (
	"bytes"
	"crypto/aes"
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"
)

var key16 = []byte("0123456789abcdef")

func allAuths() []Authenticator {
	return []Authenticator{NewHMACMD5(), NewHMACSHA1(), NewUMAC32()}
}

func TestIDsAndNames(t *testing.T) {
	want := map[string]uint8{
		"HMAC-MD5":  IDHMACMD5,
		"HMAC-SHA1": IDHMACSHA1,
		"UMAC-32":   IDUMAC32,
	}
	for _, a := range allAuths() {
		if want[a.Name()] != a.ID() {
			t.Errorf("%s: ID = %d, want %d", a.Name(), a.ID(), want[a.Name()])
		}
	}
	if NewCRC32().ID() != IDNone {
		t.Error("CRC baseline must use ID 0")
	}
}

func TestTagVerifyRoundTrip(t *testing.T) {
	msg := []byte("an IBA packet's invariant bytes")
	for _, a := range allAuths() {
		tag, err := a.Tag(key16, msg, 7)
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		ok, err := Verify(a, key16, msg, 7, tag)
		if err != nil || !ok {
			t.Fatalf("%s: Verify = %v, %v", a.Name(), ok, err)
		}
		// Tampered message must fail.
		m2 := append([]byte(nil), msg...)
		m2[0] ^= 1
		ok, err = Verify(a, key16, m2, 7, tag)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("%s: verified tampered message", a.Name())
		}
		// Wrong key must fail.
		k2 := append([]byte(nil), key16...)
		k2[5] ^= 1
		ok, _ = Verify(a, k2, msg, 7, tag)
		if ok {
			t.Fatalf("%s: verified under wrong key", a.Name())
		}
		// Wrong nonce must fail (replay defense hook).
		ok, _ = Verify(a, key16, msg, 8, tag)
		if ok {
			t.Fatalf("%s: verified under wrong nonce", a.Name())
		}
	}
}

func TestHMACMatchesStdlibComposition(t *testing.T) {
	// Our HMAC tags must be the first 4 bytes of HMAC(key, nonce||msg).
	msg := []byte("check composition")
	nonce := uint64(99)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)

	for _, tc := range []struct {
		a   Authenticator
		ref func() []byte
	}{
		{NewHMACMD5(), func() []byte {
			m := hmac.New(md5.New, key16)
			m.Write(nb[:])
			m.Write(msg)
			return m.Sum(nil)
		}},
		{NewHMACSHA1(), func() []byte {
			m := hmac.New(sha1.New, key16)
			m.Write(nb[:])
			m.Write(msg)
			return m.Sum(nil)
		}},
	} {
		got, err := tc.a.Tag(key16, msg, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if want := binary.BigEndian.Uint32(tc.ref()[:4]); got != want {
			t.Fatalf("%s: tag %#x, want %#x", tc.a.Name(), got, want)
		}
	}
}

func TestHMACEmptyKeyRejected(t *testing.T) {
	if _, err := NewHMACMD5().Tag(nil, []byte("m"), 0); err == nil {
		t.Fatal("HMAC accepted empty key")
	}
}

func TestUMACKeySizeEnforced(t *testing.T) {
	if _, err := NewUMAC32().Tag(make([]byte, 8), []byte("m"), 0); err == nil {
		t.Fatal("UMAC accepted 8-byte key")
	}
}

func TestUMACKeyCache(t *testing.T) {
	a := NewUMAC32()
	msg := []byte("cached key path")
	t1, err := a.Tag(key16, msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.Tag(key16, msg, 3) // second call hits the cache
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("cache changed tag value")
	}
}

// The key cache forgets: rotation mints keys for as long as a run lasts
// and wipes promise an evicted node keeps no credentials, so the cache
// may hold no more than keyCacheCap expanded keys — and a key that was
// evicted still tags correctly, because it is expanded again.
func TestKeyCacheBounded(t *testing.T) {
	msg := []byte("one of a thousand epochs")
	keyN := func(i int) []byte {
		k := append([]byte(nil), key16...)
		binary.BigEndian.PutUint32(k, uint32(i))
		return k
	}
	u := NewUMAC32().(*umacAuth)
	first, err := u.Tag(keyN(0), msg, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 1000; i++ {
		if _, err := u.Tag(keyN(i), msg, 9); err != nil {
			t.Fatal(err)
		}
		if n := len(u.cache.m); n > keyCacheCap {
			t.Fatalf("%d keys resident after %d, bound is %d", n, i+1, keyCacheCap)
		}
	}
	if n := len(u.cache.m); n != keyCacheCap {
		t.Fatalf("%d keys resident after 1000, want the full %d", n, keyCacheCap)
	}
	again, err := u.Tag(keyN(0), msg, 9) // long evicted
	if err != nil || again != first {
		t.Fatalf("evicted key tags %#x (%v), first time %#x", again, err, first)
	}
}

// A UMAC-32 tag allocates nothing — not for a ragged NH tail (31, 188,
// 1052 B), not for the two-block L2 input of a full IBA packet (1052,
// 2048 B), not for the pad's AES blocks, not for the key lookup — and the
// values are RFC 4418's where it publishes one ('a' × 0 and × 2^10 under
// its key and nonce) and the pre-change implementation's elsewhere.
func TestUMACTagZeroAlloc(t *testing.T) {
	a := NewUMAC32()
	key := []byte("abcdefghijklmnop")
	const nonce = 0x6263646566676869 // "bcdefghi"
	for _, c := range []struct {
		n    int
		want uint32
	}{
		{0, 0x113145FB}, // RFC 4418
		{31, 0x9D4FC2B7},
		{64, 0x84FFCCF4},
		{188, 0x315AD7A2},
		{1024, 0x599B350B}, // RFC 4418
		{1052, 0x7A071B12},
		{2048, 0x710B4335},
	} {
		msg := bytes.Repeat([]byte("a"), c.n)
		var got uint32
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if got, err = a.Tag(key, msg, nonce); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%d B: tag %#08X, want %#08X", c.n, got, c.want)
		}
		if allocs != 0 {
			t.Errorf("%d B: Tag allocated %.1f times, want 0", c.n, allocs)
		}
	}
}

// CRC's defining weakness (Table 4, forgery probability 1): anyone can
// recompute a valid tag for a forged message without any key.
func TestCRCForgeable(t *testing.T) {
	a := NewCRC32()
	forged := []byte("attacker-chosen payload")
	tag, err := a.Tag(nil, forged, 0) // no key needed
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := Verify(a, nil, forged, 0, tag)
	if !ok {
		t.Fatal("CRC recomputation failed")
	}
	if a.ForgeryProb() != 1.0 {
		t.Fatal("CRC must report forgery probability 1")
	}
}

func TestForgeryProbOrdering(t *testing.T) {
	crc := NewCRC32().ForgeryProb()
	um := NewUMAC32().ForgeryProb()
	h1 := NewHMACSHA1().ForgeryProb()
	if !(h1 < um && um < crc) {
		t.Fatalf("forgery ordering wrong: sha1=%v umac=%v crc=%v", h1, um, crc)
	}
	if um != 1.0/(1<<30) || h1 != 1.0/(1<<32) {
		t.Fatalf("forgery constants drifted: umac=%v hmac=%v", um, h1)
	}
}

// Random forged tags should almost never verify: empirical forgery check.
func TestRandomForgeryRejected(t *testing.T) {
	a := NewUMAC32()
	msg := []byte("protect me")
	rng := rand.New(rand.NewSource(17))
	real, _ := a.Tag(key16, msg, 5)
	hits := 0
	for i := 0; i < 10000; i++ {
		guess := rng.Uint32()
		if guess == real {
			hits++
		}
	}
	if hits > 1 {
		t.Fatalf("%d/10000 random guesses matched a 32-bit tag", hits)
	}
}

func TestRegistry(t *testing.T) {
	r := DefaultRegistry()
	registered := 0
	for id := 0; id < 256; id++ {
		if _, ok := r.Lookup(uint8(id)); ok {
			registered++
		}
	}
	if registered != 3 {
		t.Fatalf("%d IDs registered, want 3", registered)
	}
	for _, id := range []uint8{IDHMACMD5, IDHMACSHA1, IDUMAC32} {
		a, ok := r.Lookup(id)
		if !ok || a.ID() != id {
			t.Fatalf("Lookup(%d) = %v, %v", id, a, ok)
		}
	}
	if err := r.Register(NewUMAC32()); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := r.Register(NewCRC32()); err == nil {
		t.Fatal("registration under ID 0 accepted")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := DefaultRegistry()
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				if _, ok := r.Lookup(IDUMAC32); !ok {
					done <- false
					return
				}
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		if !<-done {
			t.Fatal("concurrent lookup failed")
		}
	}
}

// Benchmarks feeding Table 4: per-algorithm authentication cost on the
// paper's 1500-bit (188-byte) message.
func benchAuth(b *testing.B, a Authenticator, n int) {
	msg := make([]byte, n)
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Tag(key16, msg, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRC32_188B(b *testing.B)    { benchAuth(b, NewCRC32(), 188) }
func BenchmarkHMACMD5_188B(b *testing.B)  { benchAuth(b, NewHMACMD5(), 188) }
func BenchmarkHMACSHA1_188B(b *testing.B) { benchAuth(b, NewHMACSHA1(), 188) }
func BenchmarkUMAC32_188B(b *testing.B)   { benchAuth(b, NewUMAC32(), 188) }

func BenchmarkCRC32_1024B(b *testing.B)    { benchAuth(b, NewCRC32(), 1024) }
func BenchmarkHMACMD5_1024B(b *testing.B)  { benchAuth(b, NewHMACMD5(), 1024) }
func BenchmarkHMACSHA1_1024B(b *testing.B) { benchAuth(b, NewHMACSHA1(), 1024) }
func BenchmarkUMAC32_1024B(b *testing.B)   { benchAuth(b, NewUMAC32(), 1024) }

// Once the key cache is full, a new key is expanded into the state of
// the key it evicts: tagging under it allocates the two AES key schedules
// the expansion needs (UMAC's KDF and pad ciphers) on top of what a tag
// under a cached key does, and nothing more — no subkey state, no KDF
// buffers — so a run that rotates keys for ever stops allocating for
// them.
func TestKeyCacheFullReusesState(t *testing.T) {
	aesAllocs := testing.AllocsPerRun(100, func() {
		if _, err := aes.NewCipher(key16); err != nil {
			t.Fatal(err)
		}
	})
	msg := []byte("one epoch more")
	a := NewUMAC32()
	k := append([]byte(nil), key16...)
	next := uint32(0)
	tagFresh := func() {
		next++
		binary.BigEndian.PutUint32(k, next)
		if _, err := a.Tag(k, msg, 9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keyCacheCap; i++ {
		tagFresh()
	}
	cached := testing.AllocsPerRun(100, func() {
		if _, err := a.Tag(k, msg, 9); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := testing.AllocsPerRun(200, tagFresh), cached+2*aesAllocs; got > want {
		t.Fatalf("a new key on a full cache allocates %v times, want at most %v (a cached tag's %v and 2 AES key schedules)", got, want, cached)
	}
}
