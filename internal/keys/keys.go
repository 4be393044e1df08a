// Package keys implements the InfiniBand key infrastructure the paper
// analyzes (section 4, Table 3) and the two authentication-key management
// schemes it proposes: partition-level (section 4.2) and queue-pair-level
// (section 4.3).
//
// IBA defines five key families, all carried or checked in plaintext:
// M_Key (subnet management), B_Key (baseboard management), P_Key
// (partition membership), Q_Key (datagram QP access) and the memory keys
// L_Key/R_Key. The paper's observation is that possession of any of these
// plaintext values grants the corresponding privilege; the fix is a secret
// key per partition or per QP pair used to MAC every packet.
package keys

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sort"

	"ibasec/internal/packet"
)

// IBA management-key and baseboard-key types (64-bit, IBA 14.2.4, 16.x).
type (
	MKey uint64
	BKey uint64
)

// LKey is a 32-bit local memory key.
type LKey uint32

// SecretKeySize is the size of the authentication secret keys generated
// by both management schemes (sized for UMAC/AES-128).
const SecretKeySize = 16

// SecretKey is a symmetric authentication key shared by communicating
// endpoints.
type SecretKey [SecretKeySize]byte

// NewSecretKey draws a fresh secret key from r (crypto/rand.Reader in
// production, a seeded reader in deterministic simulations).
func NewSecretKey(r io.Reader) (SecretKey, error) {
	var k SecretKey
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return k, fmt.Errorf("keys: generating secret: %w", err)
	}
	return k, nil
}

// Rand is the default randomness source for key generation.
var Rand io.Reader = rand.Reader

// MaxPKeysPerPort is the IBA-specified capacity of a port's partition
// table (the paper sizes SIF memory from this: 32768 × 16 bits = 64 KB).
const MaxPKeysPerPort = 32768

// Errors returned by table operations.
var (
	ErrTableFull   = errors.New("keys: partition table full")
	ErrNotMember   = errors.New("keys: P_Key not in partition table")
	ErrNoSecretKey = errors.New("keys: no secret key for index")
)

// PartitionTable is the per-port table of P_Keys a Channel Adapter or an
// enforcing switch port accepts (IBA 10.9.2). A table belongs to the one
// simulation run that built it — Check counts every lookup — so it takes
// no lock; parallelism is across runs (internal/runner).
type PartitionTable struct {
	keys   map[uint16]packet.PKey // base value -> full P_Key entry
	limit  int
	checks uint64 // lookups performed (feeds the Table 2 cost model)
}

// NewPartitionTable returns an empty table bounded by limit entries
// (0 or negative means the IBA maximum).
func NewPartitionTable(limit int) *PartitionTable {
	if limit <= 0 || limit > MaxPKeysPerPort {
		limit = MaxPKeysPerPort
	}
	return &PartitionTable{keys: make(map[uint16]packet.PKey), limit: limit}
}

// Add inserts a P_Key. Adding a key with the same base value overwrites
// the membership bit (a port is in a partition once).
func (t *PartitionTable) Add(k packet.PKey) error {
	if _, ok := t.keys[k.Base()]; !ok && len(t.keys) >= t.limit {
		return fmt.Errorf("%w (limit %d)", ErrTableFull, t.limit)
	}
	t.keys[k.Base()] = k
	return nil
}

// Remove deletes the entry with k's base value.
func (t *PartitionTable) Remove(k packet.PKey) {
	delete(t.keys, k.Base())
}

// Check implements the IBA P_Key acceptance rule: the packet's P_Key must
// match a table entry's base value, and at least one of the two keys must
// have full membership (two limited members cannot talk, IBA 10.9.3).
func (t *PartitionTable) Check(k packet.PKey) bool {
	t.checks++
	mine, ok := t.keys[k.Base()]
	if !ok {
		return false
	}
	return k.Full() || mine.Full()
}

// Len returns the number of entries.
func (t *PartitionTable) Len() int {
	return len(t.keys)
}

// Lookups returns the number of Check calls, the per-packet cost the
// paper's Table 2 accounts as f(p).
func (t *PartitionTable) Lookups() uint64 {
	return t.checks
}

// Keys returns the table's P_Keys sorted by base value.
func (t *PartitionTable) Keys() []packet.PKey {
	out := make([]packet.PKey, 0, len(t.keys))
	for _, k := range t.keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base() < out[j].Base() })
	return out
}

// Nonce builds the per-packet MAC nonce from the packet identity: source
// QP (24 bits), destination QP (low 16 bits) and PSN (24 bits) — the
// replay-protection extension discussed in the paper's section 7. The
// three fields total 72 bits, so the destination QP contributes only its
// low 16 bits; two destination QPs that differ solely above bit 15 would
// alias, which cannot happen in this simulator's QP allocation (QPNs are
// small sequential integers per CA).
func Nonce(srcQP, dstQP packet.QPN, psn uint32) uint64 {
	return uint64(srcQP&0xFFFFFF)<<40 | uint64(dstQP&0xFFFF)<<24 | uint64(psn&0xFFFFFF)
}
