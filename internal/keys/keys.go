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
	"slices"

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
	// keys holds one full P_Key entry per base value, ascending by base:
	// the order Check searches and Keys hands out.
	keys   []packet.PKey
	limit  int
	checks uint64 // lookups performed (feeds the Table 2 cost model)
}

// NewPartitionTable returns an empty table bounded by limit entries
// (0 or negative means the IBA maximum).
func NewPartitionTable(limit int) *PartitionTable {
	if limit <= 0 || limit > MaxPKeysPerPort {
		limit = MaxPKeysPerPort
	}
	return &PartitionTable{limit: limit}
}

// NewPartitionTables returns n empty tables bounded at the IBA maximum,
// as one allocation per kind: each table's first each entries come from
// one shared slab, and only a table that outgrows them grows alone.
func NewPartitionTables(n, each int) []PartitionTable {
	tables := make([]PartitionTable, n)
	slab := make([]packet.PKey, n*each)
	for i := range tables {
		tables[i] = PartitionTable{keys: slab[i*each : i*each : (i+1)*each], limit: MaxPKeysPerPort}
	}
	return tables
}

// find binary-searches for the entry with base value b: its index, or
// where it would be inserted. It is written out because Check runs per
// delivered packet, and slices.BinarySearchFunc's comparison callback
// costs as much as a map lookup.
func (t *PartitionTable) find(b uint16) (int, bool) {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.keys[m].Base() < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.keys) && t.keys[lo].Base() == b
}

// Add inserts a P_Key. Adding a key with the same base value overwrites
// the membership bit (a port is in a partition once).
func (t *PartitionTable) Add(k packet.PKey) error {
	i, ok := t.find(k.Base())
	switch {
	case ok:
		t.keys[i] = k
	case len(t.keys) >= t.limit:
		return fmt.Errorf("%w (limit %d)", ErrTableFull, t.limit)
	default:
		t.keys = slices.Insert(t.keys, i, k)
	}
	return nil
}

// Remove deletes the entry with k's base value.
func (t *PartitionTable) Remove(k packet.PKey) {
	if i, ok := t.find(k.Base()); ok {
		t.keys = slices.Delete(t.keys, i, i+1)
	}
}

// Check implements the IBA P_Key acceptance rule: the packet's P_Key must
// match a table entry's base value, and at least one of the two keys must
// have full membership (two limited members cannot talk, IBA 10.9.3).
func (t *PartitionTable) Check(k packet.PKey) bool {
	t.checks++
	i, ok := t.find(k.Base())
	return ok && (k.Full() || t.keys[i].Full())
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

// Keys returns the table's P_Keys ascending by base value. The slice is
// a view of the table, valid until its next Add or Remove.
func (t *PartitionTable) Keys() []packet.PKey { return t.keys }

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
