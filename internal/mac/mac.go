// Package mac provides the authentication functions the paper compares
// (section 5.2, Table 4) behind one interface: a keyed function producing
// the 32-bit Authentication Tag (AT) that replaces the ICRC field.
//
// Each Authenticator has a small numeric ID. The sender stores the ID in
// the BTH Resv8a byte (zero means "plain ICRC, no authentication") and the
// tag in the ICRC field; the receiver looks the ID up in a Registry and
// verifies the tag with the secret key indexed by P_Key or (Q_Key, SrcQP).
// Because Resv8a is a variant field, legacy IBA gear forwards these packets
// unmodified — the property the paper's design hinges on.
//
// Ownership: a Registry and the authenticators in it belong to one
// simulation run, which is one goroutine (parallelism is across runs,
// internal/runner). The keyed authenticators memoize expanded subkeys and
// keep working memory between calls, so sharing one between goroutines
// needs external synchronization; concurrent read-only Lookups of a
// registry that is no longer being extended are fine.
package mac

import (
	"crypto/hmac"
	"crypto/md5"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"hash"

	"ibasec/internal/icrc"
	"ibasec/internal/umac"
)

// Well-known authentication function IDs (values of BTH.Resv8a). ID 0 is
// reserved for "no authentication; ICRC in use".
const (
	IDNone     uint8 = 0
	IDHMACMD5  uint8 = 1
	IDHMACSHA1 uint8 = 2
	IDUMAC32   uint8 = 3
)

// TagSize is the authentication tag size in bytes — it must equal the
// ICRC field size for the paper's in-place encoding to work.
const TagSize = 4

// Authenticator computes and verifies 32-bit authentication tags. An
// implementation may keep per-key and per-call state between calls; see
// the package comment for who may call it.
type Authenticator interface {
	// ID is the function identifier stored in BTH.Resv8a (non-zero).
	ID() uint8
	// Name is a short human-readable algorithm name.
	Name() string
	// Tag authenticates msg under key. The nonce must be unique per
	// (key, message) — the transport builds it from the source QP and
	// PSN. Algorithms that don't consume a nonce ignore it.
	Tag(key, msg []byte, nonce uint64) (uint32, error)
	// ForgeryProb returns the per-packet forgery probability of the
	// 32-bit truncated tag (Table 4's last column).
	ForgeryProb() float64
}

// Verify recomputes the tag and compares. All current algorithms are
// deterministic given (key, msg, nonce), so verification is recomputation.
func Verify(a Authenticator, key, msg []byte, nonce uint64, tag uint32) (bool, error) {
	want, err := a.Tag(key, msg, nonce)
	if err != nil {
		return false, err
	}
	return want == tag, nil
}

// hmacAuth truncates an HMAC digest to 32 bits. The paper projects the
// forgery probability of a t-bit truncation of an unbroken hash as ~2^-t.
type hmacAuth struct {
	id   uint8
	name string
	newH func() hash.Hash
}

func (h *hmacAuth) ID() uint8            { return h.id }
func (h *hmacAuth) Name() string         { return h.name }
func (h *hmacAuth) ForgeryProb() float64 { return 1.0 / (1 << 32) }

func (h *hmacAuth) Tag(key, msg []byte, nonce uint64) (uint32, error) {
	if len(key) == 0 {
		return 0, fmt.Errorf("mac: %s requires a key", h.name)
	}
	m := hmac.New(h.newH, key)
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	m.Write(nb[:])
	m.Write(msg)
	return binary.BigEndian.Uint32(m.Sum(nil)[:TagSize]), nil
}

// NewHMACMD5 returns the HMAC-MD5 authenticator (IPSec-conventional MAC
// included for interoperability comparison).
func NewHMACMD5() Authenticator {
	return &hmacAuth{id: IDHMACMD5, name: "HMAC-MD5", newH: md5.New}
}

// NewHMACSHA1 returns the HMAC-SHA1 authenticator.
func NewHMACSHA1() Authenticator {
	return &hmacAuth{id: IDHMACSHA1, name: "HMAC-SHA1", newH: sha1.New}
}

// umacAuth is the paper's preferred algorithm: provable 2^-30 forgery at
// 32-bit tags and near-CRC speed.
type umacAuth struct {
	cache   keyCache
	scratch umac.Scratch // the pad derivation's AES blocks, reused per tag
}

// NewUMAC32 returns the UMAC-32 authenticator.
func NewUMAC32() Authenticator { return new(umacAuth) }

func (u *umacAuth) ID() uint8            { return IDUMAC32 }
func (u *umacAuth) Name() string         { return "UMAC-32" }
func (u *umacAuth) ForgeryProb() float64 { return 1.0 / (1 << 30) } // proven bound for UMAC-32

func (u *umacAuth) Tag(key, msg []byte, nonce uint64) (uint32, error) {
	if len(key) != umac.KeySize {
		return 0, fmt.Errorf("mac: UMAC requires a %d-byte key, got %d", umac.KeySize, len(key))
	}
	inst, err := u.cache.get(key)
	if err != nil {
		return 0, err
	}
	return inst.Tag32UintScratch(&u.scratch, msg, nonce)
}

// keyCacheCap bounds a keyCache. A run's live keys fit with room to
// spare — Figure 6's QP-level configuration holds 16 nodes × 3 peers × 2
// directions = 96 pair secrets, a partition-level one three epochs
// (current, grace, draining) per partition — so eviction only ever meets
// keys that rotation, retirement or a wipe has already left behind.
const keyCacheCap = 256

// keyCache memoizes the UMAC subkeys (≈ 2.3 KB) expanded from a 16-byte
// key, keyed by the raw key bytes. It holds at most keyCacheCap entries
// and evicts in insertion order: rotation mints keys forever, and a cache
// that never forgot one would keep every retired epoch's and every
// evicted node's credentials for the life of the registry. An evicted key
// that is used again is simply re-expanded. Once full, the cache expands
// a new key into the state of the key it evicts, so a key epoch allocates
// only what SetKey itself must.
type keyCache struct {
	m     map[[16]byte]*umac.UMAC
	order [keyCacheCap][16]byte // resident keys, oldest at next once full
	next  int
}

// get returns the subkeys for key, expanding them into a cache slot on
// first use.
func (c *keyCache) get(key []byte) (*umac.UMAC, error) {
	var kk [16]byte
	copy(kk[:], key)
	if st := c.m[kk]; st != nil {
		return st, nil
	}
	if c.m == nil {
		c.m = make(map[[16]byte]*umac.UMAC)
	}
	var st *umac.UMAC
	if len(c.m) == keyCacheCap {
		st = c.m[c.order[c.next]]
		delete(c.m, c.order[c.next])
	} else {
		st = new(umac.UMAC)
	}
	if err := st.SetKey(key); err != nil {
		return nil, err // st, half expanded, is dropped
	}
	c.order[c.next] = kk
	c.next = (c.next + 1) % keyCacheCap
	c.m[kk] = st
	return st, nil
}

// crcAuth is the unkeyed CRC-32 baseline: pure error detection, forgery
// probability 1 (anyone can recompute it). It exists so Table 4 can be
// regenerated and so tests can demonstrate why CRC is not authentication.
type crcAuth struct{}

// NewCRC32 returns the CRC-32 "authenticator" baseline. It never appears
// in a Registry under a non-zero ID in production configurations.
func NewCRC32() Authenticator { return crcAuth{} }

func (crcAuth) ID() uint8            { return IDNone }
func (crcAuth) Name() string         { return "CRC-32" }
func (crcAuth) ForgeryProb() float64 { return 1.0 }
func (crcAuth) Tag(_ []byte, msg []byte, _ uint64) (uint32, error) {
	return icrc.CRC32(msg), nil
}

// Registry maps authentication-function IDs to implementations. An ID is
// one byte, so the registry is an array indexed by it: a per-packet
// Lookup is one load. The zero value is empty; DefaultRegistry returns one
// with all standard functions.
type Registry struct {
	byID [256]Authenticator
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return new(Registry) }

// DefaultRegistry returns a registry holding HMAC-MD5, HMAC-SHA1 and
// UMAC-32 under their well-known IDs.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, a := range []Authenticator{NewHMACMD5(), NewHMACSHA1(), NewUMAC32()} {
		if err := r.Register(a); err != nil {
			panic(err)
		}
	}
	return r
}

// Register adds an authenticator under its ID. ID 0 and duplicate IDs are
// rejected.
func (r *Registry) Register(a Authenticator) error {
	if a.ID() == IDNone {
		return fmt.Errorf("mac: cannot register under reserved ID 0 (%s)", a.Name())
	}
	if r.byID[a.ID()] != nil {
		return fmt.Errorf("mac: ID %d already registered", a.ID())
	}
	r.byID[a.ID()] = a
	return nil
}

// Lookup returns the authenticator registered under id.
func (r *Registry) Lookup(id uint8) (Authenticator, bool) {
	a := r.byID[id]
	return a, a != nil
}
