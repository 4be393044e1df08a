package keys

import (
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"io"
)

// The paper assumes "SM knows public keys of all CAs and each CA can
// decrypt the secret key encrypted by the SM" (section 4.2) and, for
// QP-level management, that "each node has a table of public keys of
// other nodes" (section 4.3). Envelope and Directory implement that
// assumed PKI with RSA-OAEP: secret keys in flight are the only encrypted
// payloads in the system, exactly matching the paper's
// confidentiality-only-for-keys design (section 2.2).

// EnvelopeKeyBits is the RSA modulus size for node key pairs;
// production deployments would use 2048+. Key generation is neither
// deterministic nor fast at this size: rsa.GenerateKey reads one extra
// random byte, or none, at random (randutil.MaybeReadByte), so the same
// seeded stream gives different keys from run to run, and generating one
// key per node makes a QP-level 4×4 Build take about 1.2 s. ROADMAP item
// 14 replaces it with seeded, cheap node keys.
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

// Open decrypts an envelope with the node's private key.
func (kp *NodeKeyPair) Open(e Envelope) (SecretKey, error) {
	var k SecretKey
	pt, err := rsa.DecryptOAEP(sha256.New(), nil, kp.Private, e.Ciphertext, []byte("ibasec-key"))
	if err != nil {
		return k, fmt.Errorf("keys: opening envelope: %w", err)
	}
	if len(pt) != SecretKeySize {
		return k, fmt.Errorf("keys: envelope held %d bytes, want %d", len(pt), SecretKeySize)
	}
	copy(k[:], pt)
	return k, nil
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
