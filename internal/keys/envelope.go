package keys

import (
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ibasec/internal/metrics"
)

// The paper assumes "SM knows public keys of all CAs and each CA can
// decrypt the secret key encrypted by the SM" (section 4.2) and, for
// QP-level management, that "each node has a table of public keys of
// other nodes" (section 4.3). Envelope and Directory implement that
// assumed PKI with RSA-OAEP: secret keys in flight are the only encrypted
// payloads in the system, exactly matching the paper's
// confidentiality-only-for-keys design (section 2.2).

// EnvelopeKeyBits is the RSA modulus size for node key pairs. 1024-bit
// keys keep deterministic test setup fast; production deployments would
// use 2048+.
const EnvelopeKeyBits = 1024

// NodeKeyPair is a node's asymmetric key pair for receiving key envelopes.
type NodeKeyPair struct {
	Private *rsa.PrivateKey
}

// GenerateNodeKeyPair creates a key pair using randomness from r.
func GenerateNodeKeyPair(r io.Reader) (*NodeKeyPair, error) {
	priv, err := rsa.GenerateKey(r, EnvelopeKeyBits)
	if err != nil {
		return nil, fmt.Errorf("keys: generating node key pair: %w", err)
	}
	return &NodeKeyPair{Private: priv}, nil
}

// Public returns the public half.
func (kp *NodeKeyPair) Public() *rsa.PublicKey { return &kp.Private.PublicKey }

// Envelope is a secret key encrypted to one node's public key, as sent by
// the SM (partition-level) or a peer CA (QP-level).
type Envelope struct {
	Ciphertext []byte
}

// Seal encrypts secret to the recipient public key.
func Seal(r io.Reader, pub *rsa.PublicKey, secret SecretKey) (Envelope, error) {
	ct, err := rsa.EncryptOAEP(sha256.New(), r, pub, secret[:], []byte("ibasec-key"))
	if err != nil {
		return Envelope{}, fmt.Errorf("keys: sealing envelope: %w", err)
	}
	return Envelope{Ciphertext: ct}, nil
}

// Open decrypts an envelope with the node's private key. It accepts both
// the bare format (Seal) and the epoch-tagged format (SealEpoch),
// discarding the epoch in the latter case; callers that need the epoch
// use OpenEpoch.
func (kp *NodeKeyPair) Open(e Envelope) (SecretKey, error) {
	var k SecretKey
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, kp.Private, e.Ciphertext, []byte("ibasec-key"))
	if err != nil {
		return k, fmt.Errorf("keys: opening envelope: %w", err)
	}
	if len(pt) != SecretKeySize && len(pt) != SecretKeySize+4 {
		return k, fmt.Errorf("keys: envelope held %d bytes, want %d or %d", len(pt), SecretKeySize, SecretKeySize+4)
	}
	copy(k[:], pt[:SecretKeySize])
	return k, nil
}

// ErrEnvelopeTampered reports an envelope whose ciphertext failed OAEP
// decryption — bit-flipped in flight or forged outright.
var ErrEnvelopeTampered = errors.New("keys: envelope tampered")

// ErrEnvelopeReplayed reports a structurally valid envelope carrying an
// epoch the receiver has already retired — a replay of an old key
// distribution.
var ErrEnvelopeReplayed = errors.New("keys: envelope replayed")

// SealEpoch encrypts an epoch-tagged secret to the recipient public key.
// The plaintext is the raw secret followed by the epoch as 4 big-endian
// bytes, under the same OAEP label as Seal, so the receiver can tell the
// two apart by plaintext length.
func SealEpoch(r io.Reader, pub *rsa.PublicKey, secret SecretKey, epoch uint32) (Envelope, error) {
	pt := make([]byte, SecretKeySize+4)
	copy(pt, secret[:])
	binary.BigEndian.PutUint32(pt[SecretKeySize:], epoch)
	ct, err := rsa.EncryptOAEP(sha256.New(), r, pub, pt, []byte("ibasec-key"))
	if err != nil {
		return Envelope{}, fmt.Errorf("keys: sealing epoch envelope: %w", err)
	}
	return Envelope{Ciphertext: ct}, nil
}

// OpenEpoch decrypts an epoch-tagged envelope. Any decryption or framing
// failure is reported as ErrEnvelopeTampered: OAEP makes ciphertext and
// plaintext integrity indistinguishable from the receiver's side.
func (kp *NodeKeyPair) OpenEpoch(e Envelope) (SecretKey, uint32, error) {
	var k SecretKey
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, kp.Private, e.Ciphertext, []byte("ibasec-key"))
	if err != nil {
		return k, 0, fmt.Errorf("%w: %v", ErrEnvelopeTampered, err)
	}
	if len(pt) != SecretKeySize+4 {
		return k, 0, fmt.Errorf("%w: plaintext held %d bytes, want %d", ErrEnvelopeTampered, len(pt), SecretKeySize+4)
	}
	copy(k[:], pt[:SecretKeySize])
	return k, binary.BigEndian.Uint32(pt[SecretKeySize:]), nil
}

// EnvelopeOpener is a CA's stateful receive side for epoch-tagged key
// envelopes: it decrypts with the node key pair, rejects replays of
// retired epochs per partition, and attributes every failure to a
// distinct counter (envelope_tampered vs envelope_replayed).
type EnvelopeOpener struct {
	kp       *NodeKeyPair
	floor    map[uint16]uint32 // lowest still-acceptable epoch per P_Key base
	Counters metrics.Set[EnvelopeCounter]
	ctr      [numEnvelopeCounters]uint64 // Counters' cells
}

// EnvelopeCounter identifies one of an EnvelopeOpener's counters.
type EnvelopeCounter uint8

// The ids of an EnvelopeOpener's counters, in name order.
const (
	EnvelopeOpened EnvelopeCounter = iota
	EnvelopeReplayed
	EnvelopeTampered
	numEnvelopeCounters
)

// envelopeCounters names each id.
var envelopeCounters = metrics.Table{Set: "envelope", Names: []string{
	EnvelopeOpened:   "envelope_opened",
	EnvelopeReplayed: "envelope_replayed",
	EnvelopeTampered: "envelope_tampered",
}}

// NewEnvelopeOpener returns an opener decrypting with kp.
func NewEnvelopeOpener(kp *NodeKeyPair) *EnvelopeOpener {
	o := &EnvelopeOpener{kp: kp, floor: make(map[uint16]uint32)}
	o.Counters.Bind(&envelopeCounters, o.ctr[:])
	return o
}

// Open decrypts an epoch envelope for partition pkBase. Tampered
// ciphertext fails with ErrEnvelopeTampered; a valid envelope carrying an
// epoch below the partition's retirement floor fails with
// ErrEnvelopeReplayed. Each outcome increments its own counter.
func (o *EnvelopeOpener) Open(pkBase uint16, e Envelope) (SecretKey, uint32, error) {
	k, epoch, err := o.kp.OpenEpoch(e)
	if err != nil {
		o.Counters.Add(EnvelopeTampered, 1)
		return SecretKey{}, 0, err
	}
	if floor := o.floor[pkBase]; epoch < floor {
		o.Counters.Add(EnvelopeReplayed, 1)
		return SecretKey{}, 0, fmt.Errorf("%w: epoch %d below retirement floor %d", ErrEnvelopeReplayed, epoch, floor)
	}
	o.Counters.Add(EnvelopeOpened, 1)
	return k, epoch, nil
}

// Retire raises the partition's acceptance floor: envelopes carrying an
// epoch below floor are rejected as replays from now on. The floor never
// moves backwards.
func (o *EnvelopeOpener) Retire(pkBase uint16, floor uint32) {
	if floor > o.floor[pkBase] {
		o.floor[pkBase] = floor
	}
}

// Directory is the assumed public-key directory: node name -> public key.
type Directory struct {
	pubs map[string]*rsa.PublicKey
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{pubs: make(map[string]*rsa.PublicKey)} }

// Register stores a node's public key under its name.
func (d *Directory) Register(node string, pub *rsa.PublicKey) { d.pubs[node] = pub }

// Lookup returns the public key registered for node.
func (d *Directory) Lookup(node string) (*rsa.PublicKey, bool) {
	pub, ok := d.pubs[node]
	return pub, ok
}

// Len returns the number of registered nodes.
func (d *Directory) Len() int { return len(d.pubs) }
