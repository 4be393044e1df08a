package keys

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// The paper assumes "SM knows public keys of all CAs and each CA can
// decrypt the secret key encrypted by the SM" (section 4.2) and, for
// QP-level management, that "each node has a table of public keys of
// other nodes" (section 4.3); it names no algorithm. Envelope and
// Directory implement that assumed PKI with X25519 node keys and a
// sealed box shaped like HPKE base mode (RFC 9180): secret keys in
// flight are the only encrypted payloads in the system, exactly matching
// the paper's confidentiality-only-for-keys design (section 2.2).
//
// Every key a node or a sender makes is 32 bytes read from the caller's
// stream, so the same seeded stream gives the same keys and the same
// envelope bytes on every run.

// EnvelopeSize is the length of every sealed envelope: the ephemeral
// public key, then the padded secret under AES-GCM with its tag. It is
// the 128 bytes an RSA-1024 OAEP envelope took, so a key-exchange MAD
// keeps its length and its serialization time.
const EnvelopeSize = 128

// envelopeLabel binds an envelope to its use: it is the AEAD's
// associated data and the key schedule's info prefix.
const envelopeLabel = "ibasec-key"

const (
	x25519Size = 32
	gcmKeySize = 16 // AES-128-GCM, as RFC 9180's common suite
	gcmNonce   = 12
	gcmTag     = 16
	// sealedSize is the plaintext a sealed envelope carries: the secret,
	// zero-padded to fill EnvelopeSize.
	sealedSize = EnvelopeSize - x25519Size - gcmTag
)

// One HKDF block holds an envelope's AES key and nonce.
var _ = [1]struct{}{}[(gcmKeySize+gcmNonce-1)/sha256.Size]

// NodeKeyPair is a node's asymmetric key pair for receiving key envelopes.
type NodeKeyPair struct {
	Private *ecdh.PrivateKey
}

// GenerateNodeKeyPair makes a key pair from 32 bytes of r. It reads
// exactly that many, so a seeded r gives the same pair on every run.
func GenerateNodeKeyPair(r io.Reader) (*NodeKeyPair, error) {
	priv, err := newX25519Key(r)
	if err != nil {
		return nil, fmt.Errorf("keys: generating node key pair: %w", err)
	}
	return &NodeKeyPair{Private: priv}, nil
}

// newX25519Key makes an X25519 private key from 32 bytes of r. Every
// 32-byte string is a valid X25519 scalar; ecdh.GenerateKey is not used
// because it may read a varying number of bytes.
func newX25519Key(r io.Reader) (*ecdh.PrivateKey, error) {
	var b [x25519Size]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(b[:])
}

// Public returns the public half.
func (kp *NodeKeyPair) Public() *ecdh.PublicKey { return kp.Private.PublicKey() }

// Envelope is a secret key encrypted to one node's public key, as sent by
// the SM (partition-level) or a peer CA (QP-level).
type Envelope struct {
	Ciphertext []byte
}

// Seal encrypts secret to the recipient public key, drawing the
// ephemeral key from r.
func Seal(r io.Reader, pub *ecdh.PublicKey, secret SecretKey) (Envelope, error) {
	eph, err := newX25519Key(r)
	if err != nil {
		return Envelope{}, fmt.Errorf("keys: sealing envelope: %w", err)
	}
	enc := eph.PublicKey().Bytes()
	shared, err := eph.ECDH(pub)
	if err != nil {
		return Envelope{}, fmt.Errorf("keys: sealing envelope: %w", err)
	}
	aead, nonce, err := envelopeAEAD(shared, enc, pub.Bytes())
	if err != nil {
		return Envelope{}, fmt.Errorf("keys: sealing envelope: %w", err)
	}
	var pt [sealedSize]byte
	copy(pt[:], secret[:])
	ct := make([]byte, x25519Size, EnvelopeSize)
	copy(ct, enc)
	return Envelope{Ciphertext: aead.Seal(ct, nonce, pt[:], []byte(envelopeLabel))}, nil
}

// errEnvelope is every refusal of Open past the length check: a forged,
// damaged or misaddressed envelope looks the same as any other.
var errEnvelope = errors.New("keys: opening envelope: message authentication failed")

// Open decrypts an envelope with the node's private key. An envelope of
// the wrong length, one sealed to another key, or one whose bytes were
// changed is refused with an error.
func (kp *NodeKeyPair) Open(e Envelope) (SecretKey, error) {
	var k SecretKey
	if len(e.Ciphertext) != EnvelopeSize {
		return k, fmt.Errorf("keys: envelope of %d bytes, want %d", len(e.Ciphertext), EnvelopeSize)
	}
	enc := e.Ciphertext[:x25519Size]
	epub, err := ecdh.X25519().NewPublicKey(enc)
	if err != nil {
		return k, errEnvelope
	}
	shared, err := kp.Private.ECDH(epub)
	if err != nil {
		return k, errEnvelope // a low-order point: the all-zero secret
	}
	aead, nonce, err := envelopeAEAD(shared, enc, kp.Public().Bytes())
	if err != nil {
		return k, errEnvelope
	}
	var pt [sealedSize]byte
	if _, err := aead.Open(pt[:0], nonce, e.Ciphertext[x25519Size:], []byte(envelopeLabel)); err != nil {
		return k, errEnvelope
	}
	copy(k[:], pt[:])
	return k, nil
}

// envelopeAEAD derives one envelope's AES-GCM key and nonce from the
// X25519 shared secret, HPKE-style: HKDF-Extract over the shared secret,
// then HKDF-Expand with the label, the ephemeral public key enc and the
// recipient's public key as info, so the key binds both ends of the
// exchange. One envelope uses one key, so a fixed nonce is safe.
func envelopeAEAD(shared, enc, recipient []byte) (cipher.AEAD, []byte, error) {
	info := make([]byte, 0, len(envelopeLabel)+2*x25519Size)
	info = append(append(append(info, envelopeLabel...), enc...), recipient...)
	okm := hkdfSHA256(shared, info)
	block, err := aes.NewCipher(okm[:gcmKeySize])
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	return aead, okm[gcmKeySize : gcmKeySize+gcmNonce], nil
}

// hkdfSHA256 returns the first block, 32 bytes, of RFC 5869's HKDF over
// SHA-256 with an empty salt: HKDF-Extract, then HKDF-Expand.
func hkdfSHA256(ikm, info []byte) []byte {
	extract := hmac.New(sha256.New, nil) // an empty salt is HashLen zero bytes
	extract.Write(ikm)
	expand := hmac.New(sha256.New, extract.Sum(nil))
	expand.Write(info)
	expand.Write([]byte{1})
	return expand.Sum(nil)
}

// Directory is the assumed public-key directory: node name -> public key.
type Directory struct {
	pubs map[string]*ecdh.PublicKey
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{pubs: make(map[string]*ecdh.PublicKey)} }

// Register stores a node's public key under its name.
func (d *Directory) Register(node string, pub *ecdh.PublicKey) { d.pubs[node] = pub }

// Lookup returns the public key registered for node.
func (d *Directory) Lookup(node string) (*ecdh.PublicKey, bool) {
	pub, ok := d.pubs[node]
	return pub, ok
}
