package keys

import (
	"fmt"
	"io"
	"slices"

	"ibasec/internal/packet"
)

// EpochKey is an epoch-tagged authentication secret. Epochs order the
// generations of one partition's secret under online rotation: the SM
// re-issues the secret at epoch e+1 while receivers keep accepting epoch
// e for a grace window, then retire it.
type EpochKey struct {
	Key   SecretKey
	Epoch uint32
}

// partitionSecrets is one partition's epoch state in a Store: the
// current secret, the previous epoch while its grace window is open, and
// a short list of retired epochs. Retired keys are kept only so the
// verification path can distinguish "signed under a retired epoch"
// (a grace-window miss, its own counter) from a plain forgery. The list
// is bounded (retiredCap) because under a subnet merge a store may hold
// tombstones for several epochs at once — its own rotation history plus
// the losing island's epochs absorbed at reconciliation. Everything is
// held by value, so an epoch installs and retires in place.
type partitionSecrets struct {
	current EpochKey
	prev    EpochKey
	hasPrev bool
	// retired[:nRetired] are the tombstones, oldest first.
	retired  [retiredCap]EpochKey
	nRetired int
}

// retiredCap bounds the per-partition retired-epoch tombstone list.
// Oldest tombstones fall off first; a packet older than eight epochs
// counts as a plain auth failure, which is the pre-merge behaviour.
const retiredCap = 8

// addRetired appends a tombstone, deduplicating exact duplicates and
// evicting the oldest entry past retiredCap. Dedup must compare the
// whole key, not just the epoch number: after a split-brain merge two
// key lineages share numeric epochs, and both lineages' keys must stay
// recognisable as expired.
func (ps *partitionSecrets) addRetired(ek EpochKey) {
	for _, r := range ps.retired[:ps.nRetired] {
		if r == ek {
			return
		}
	}
	if ps.nRetired == retiredCap {
		copy(ps.retired[:], ps.retired[1:])
		ps.nRetired--
	}
	ps.retired[ps.nRetired] = ek
	ps.nRetired++
}

// Store is a Channel Adapter's table of installed authentication secrets,
// covering both management schemes:
//
//   - Partition-level (paper Fig. 2): one secret per partition, indexed by
//     the P_Key base value. All QPs in the partition share it. Secrets are
//     epoch-tagged; without rotation everything stays at epoch 0.
//   - QP-level (paper Fig. 3): per-QP secrets. On the receive side a
//     secret is indexed by (Q_Key, source QP) because one datagram QP may
//     issue distinct secrets to many requesters; on the send side it is
//     indexed by (local QP, remote QP).
//
// A Store belongs to one Channel Adapter of one simulation run and takes
// no lock. The lookups on the per-packet path return pointers into the
// store's own storage, so a key reaches the MAC without being copied;
// such a pointer is for immediate use — read-only, and not to be held
// across a call that installs, rotates, retires or wipes keys.
type Store struct {
	// partitions holds one entry per installed partition, in install
	// order: a CA is in few partitions, so lookups scan.
	partitions []partitionEntry
	// The QP-level tables are made by their first install.
	recvQP map[recvIndex]*SecretKey
	sendQP map[pairIndex]*SecretKey
}

// partitionEntry is one partition's secrets in a Store, by P_Key base.
type partitionEntry struct {
	base uint16
	partitionSecrets
}

type recvIndex struct {
	qkey packet.QKey
	lid  packet.LID
	src  packet.QPN
}

type pairIndex struct {
	local     packet.QPN
	remoteLID packet.LID
	remote    packet.QPN
}

// NewStore returns an empty secret-key store.
func NewStore() *Store { return &NewStores(1)[0] }

// NewStores returns n empty stores, one per CA of a fabric, as one
// allocation per kind: each store's first partition entry comes from one
// shared slab.
func NewStores(n int) []Store {
	stores := make([]Store, n)
	entries := make([]partitionEntry, n)
	for i := range stores {
		stores[i].partitions = entries[i : i : i+1]
	}
	return stores
}

// lookup returns pk's partition secrets, or nil.
func (s *Store) lookup(pk packet.PKey) *partitionSecrets {
	base := pk.Base()
	for i := range s.partitions {
		if e := &s.partitions[i]; e.base == base {
			return &e.partitionSecrets
		}
	}
	return nil
}

// install sets pk's partition secrets to ps, adding the entry if absent.
func (s *Store) install(pk packet.PKey, ps partitionSecrets) {
	if cur := s.lookup(pk); cur != nil {
		*cur = ps
		return
	}
	s.partitions = append(s.partitions, partitionEntry{base: pk.Base(), partitionSecrets: ps})
}

// InstallPartitionSecret stores the shared secret for a partition at
// epoch 0, resetting any rotation state (the pre-rotation installation
// path).
func (s *Store) InstallPartitionSecret(pk packet.PKey, k SecretKey) {
	s.install(pk, partitionSecrets{current: EpochKey{Key: k}})
}

// InstallPartitionEpoch installs the partition secret for one epoch. A
// newer epoch displaces the current secret into the grace window; an
// equal epoch replaces the key in place; an older epoch is ignored (a
// late re-delivery must not roll the store backwards).
func (s *Store) InstallPartitionEpoch(pk packet.PKey, epoch uint32, k SecretKey) {
	ps := s.lookup(pk)
	if ps == nil {
		s.install(pk, partitionSecrets{current: EpochKey{Key: k, Epoch: epoch}})
		return
	}
	switch {
	case epoch > ps.current.Epoch:
		ps.prev, ps.hasPrev = ps.current, true
		ps.current = EpochKey{Key: k, Epoch: epoch}
	case epoch == ps.current.Epoch:
		ps.current.Key = k
	}
}

// RetirePartitionEpoch closes the grace window: the previous epoch, if it
// is at or below the given epoch, stops verifying and becomes a retired
// tombstone. It reports whether a key was actually retired.
func (s *Store) RetirePartitionEpoch(pk packet.PKey, epoch uint32) bool {
	ps := s.lookup(pk)
	if ps == nil || !ps.hasPrev || ps.prev.Epoch > epoch {
		return false
	}
	ps.addRetired(ps.prev)
	ps.prev, ps.hasPrev = EpochKey{}, false
	return true
}

// AddRetiredPartitionEpoch installs a tombstone for an epoch key this
// store never held live. The subnet-merge reconciliation path uses it to
// teach every CA the losing island's epochs, so in-flight packets sealed
// under them drain as auth_epoch_expired instead of auth_fail. A
// tombstone at or above the current epoch is ignored: it must never
// shadow a live key.
func (s *Store) AddRetiredPartitionEpoch(pk packet.PKey, ek EpochKey) {
	ps := s.lookup(pk)
	if ps == nil || ek.Epoch >= ps.current.Epoch {
		return
	}
	ps.addRetired(ek)
}

// PartitionSecret returns the current-epoch secret for pk's partition
// (the send-path key).
func (s *Store) PartitionSecret(pk packet.PKey) (*SecretKey, bool) {
	ps := s.lookup(pk)
	if ps == nil {
		return nil, false
	}
	return &ps.current.Key, true
}

// PartitionEpoch returns the current epoch of pk's partition secret.
func (s *Store) PartitionEpoch(pk packet.PKey) (uint32, bool) {
	ps := s.lookup(pk)
	if ps == nil {
		return 0, false
	}
	return ps.current.Epoch, true
}

// PartitionVerifyKeys returns the acceptable verification keys for pk:
// the current epoch and, while a grace window is open, the previous
// epoch (nil otherwise). ok is false when no secret is installed at all.
func (s *Store) PartitionVerifyKeys(pk packet.PKey) (cur, prev *EpochKey, ok bool) {
	ps := s.lookup(pk)
	if ps == nil {
		return nil, nil, false
	}
	if ps.hasPrev {
		prev = &ps.prev
	}
	return &ps.current, prev, true
}

// RetiredPartitionKey returns the most recently retired epoch key for pk,
// kept so verification can attribute "signed under a retired epoch"
// rejects to their own counter.
func (s *Store) RetiredPartitionKey(pk packet.PKey) (EpochKey, bool) {
	ps := s.lookup(pk)
	if ps == nil || ps.nRetired == 0 {
		return EpochKey{}, false
	}
	return ps.retired[ps.nRetired-1], true
}

// RetiredPartitionKeys returns every retired tombstone for pk, newest
// last. Verification tries each so that packets sealed under any
// recently retired epoch — including a merged-away island's — are
// attributed to auth_epoch_expired. Like the key pointers, the slice is a
// read-only view into the store, not to be held across a call that
// installs, retires or wipes keys.
func (s *Store) RetiredPartitionKeys(pk packet.PKey) []EpochKey {
	ps := s.lookup(pk)
	if ps == nil || ps.nRetired == 0 {
		return nil
	}
	return ps.retired[:ps.nRetired:ps.nRetired]
}

// WipePartitionSecret removes every epoch of pk's partition secret
// (including the retired tombstone), as done when this CA is evicted from
// the partition.
func (s *Store) WipePartitionSecret(pk packet.PKey) {
	s.partitions = slices.DeleteFunc(s.partitions, func(e partitionEntry) bool { return e.base == pk.Base() })
}

// WipeQPSecrets clears every QP-level send and receive secret, returning
// how many entries were destroyed. Eviction calls this so a removed node
// retains no per-QP credentials that rotation could otherwise resurrect.
func (s *Store) WipeQPSecrets() int {
	n := len(s.recvQP) + len(s.sendQP)
	clear(s.recvQP)
	clear(s.sendQP)
	return n
}

// InstallRecvQPSecret stores a secret this CA issued for datagram packets
// arriving with the given Q_Key from the given source (LID, QP). The
// paper indexes by (Q_Key, source QP) alone (Fig. 3); since IBA QP
// numbers are only unique per CA, the source LID is added to make the
// index unambiguous when two nodes happen to use the same QP number.
func (s *Store) InstallRecvQPSecret(qk packet.QKey, lid packet.LID, src packet.QPN, k SecretKey) {
	if s.recvQP == nil {
		s.recvQP = make(map[recvIndex]*SecretKey)
	}
	s.recvQP[recvIndex{qk, lid, src}] = &k
}

// RecvQPSecret looks up the receive-side secret by (Q_Key, source LID,
// source QP).
func (s *Store) RecvQPSecret(qk packet.QKey, lid packet.LID, src packet.QPN) (*SecretKey, bool) {
	k, ok := s.recvQP[recvIndex{qk, lid, src}]
	return k, ok
}

// InstallSendQPSecret stores the secret a local QP uses when sending to a
// specific remote (LID, QP). As with the receive index, the remote LID
// disambiguates QP numbers that are only unique per CA.
func (s *Store) InstallSendQPSecret(local packet.QPN, remoteLID packet.LID, remote packet.QPN, k SecretKey) {
	if s.sendQP == nil {
		s.sendQP = make(map[pairIndex]*SecretKey)
	}
	s.sendQP[pairIndex{local, remoteLID, remote}] = &k
}

// SendQPSecret returns the secret for the (local QP, remote LID, remote
// QP) pair.
func (s *Store) SendQPSecret(local packet.QPN, remoteLID packet.LID, remote packet.QPN) (*SecretKey, bool) {
	k, ok := s.sendQP[pairIndex{local, remoteLID, remote}]
	return k, ok
}

// Counts returns the number of partition, receive-QP and send-QP entries,
// used by memory-overhead accounting.
func (s *Store) Counts() (partition, recvQP, sendQP int) {
	return len(s.partitions), len(s.recvQP), len(s.sendQP)
}

// PartitionAuthority is the Subnet Manager side of partition-level key
// management (paper section 4.2): it owns one epoch-tagged secret per
// partition and seals it to each member CA's public key. It belongs to
// one simulation run and takes no lock.
type PartitionAuthority struct {
	rng     io.Reader
	dir     *Directory
	secrets map[uint16]EpochKey
	// history keeps the last few keys this authority minted per
	// partition (newest last, bounded by retiredCap). Merge
	// reconciliation reads it to tombstone a losing island's epochs on
	// the winning island's CAs and vice versa.
	history map[uint16][]EpochKey
	fresh   SecretKey // RotateEpoch's read buffer
}

// NewPartitionAuthority returns an authority drawing randomness from rng
// and resolving node public keys through dir.
func NewPartitionAuthority(rng io.Reader, dir *Directory) *PartitionAuthority {
	return &PartitionAuthority{
		rng:     rng,
		dir:     dir,
		secrets: make(map[uint16]EpochKey),
		history: make(map[uint16][]EpochKey),
	}
}

// Fork returns an independent authority seeded with a snapshot of this
// one's current per-partition secrets but drawing fresh randomness from
// rng. A partitioned island's contained master forks the shared
// authority so its island-scoped rotations diverge from the other
// island's without touching the state they shared.
func (a *PartitionAuthority) Fork(rng io.Reader) *PartitionAuthority {
	f := NewPartitionAuthority(rng, a.dir)
	for base, ek := range a.secrets {
		f.secrets[base] = ek
	}
	return f
}

// MintEpoch generates a fresh secret for pk at exactly the given epoch,
// replacing whatever the authority held. Merge reconciliation uses it to
// jump the unified fabric past both islands' diverged epoch counters in
// one step.
func (a *PartitionAuthority) MintEpoch(pk packet.PKey, epoch uint32) (SecretKey, error) {
	k, err := NewSecretKey(a.rng)
	if err != nil {
		return SecretKey{}, err
	}
	a.record(pk.Base(), a.secrets[pk.Base()])
	a.secrets[pk.Base()] = EpochKey{Key: k, Epoch: epoch}
	return k, nil
}

// RecentKeys returns the keys this authority minted for pk that are no
// longer current (newest last). The current key is excluded: callers
// tombstoning a dead authority's epochs must fetch the final key
// separately, via the secrets snapshot, before abandoning it.
func (a *PartitionAuthority) RecentKeys(pk packet.PKey) []EpochKey {
	h := a.history[pk.Base()]
	if len(h) == 0 {
		return nil
	}
	out := make([]EpochKey, len(h))
	copy(out, h)
	return out
}

// CurrentKey returns the authority's live key and epoch for pk.
func (a *PartitionAuthority) CurrentKey(pk packet.PKey) (EpochKey, bool) {
	ek, ok := a.secrets[pk.Base()]
	return ek, ok
}

// record pushes a displaced key onto the bounded history. Zero-value
// keys (never generated) are skipped.
func (a *PartitionAuthority) record(base uint16, ek EpochKey) {
	if ek.Key == (SecretKey{}) {
		return
	}
	h := a.history[base]
	if len(h) == retiredCap {
		copy(h, h[1:])
		h[len(h)-1] = ek
		return
	}
	a.history[base] = append(h, ek)
}

// EnsureSecret returns the partition's current secret, generating it at
// epoch 0 on first use (the paper: "When the SM creates a partition, it
// generates a secret key for that partition").
func (a *PartitionAuthority) EnsureSecret(pk packet.PKey) (SecretKey, error) {
	if k, ok := a.secrets[pk.Base()]; ok {
		return k.Key, nil
	}
	k, err := NewSecretKey(a.rng)
	if err != nil {
		return SecretKey{}, err
	}
	a.secrets[pk.Base()] = EpochKey{Key: k}
	return k, nil
}

// Epoch returns the partition secret's current epoch (0 when the secret
// has never been generated or rotated).
func (a *PartitionAuthority) Epoch(pk packet.PKey) uint32 {
	return a.secrets[pk.Base()].Epoch
}

// RotateEpoch replaces the partition's secret and advances its epoch,
// returning the fresh key and the new epoch.
func (a *PartitionAuthority) RotateEpoch(pk packet.PKey) (SecretKey, uint32, error) {
	// Read into the authority's own buffer: a local array handed to the
	// io.Reader would be allocated on every rotation.
	if _, err := io.ReadFull(a.rng, a.fresh[:]); err != nil {
		return SecretKey{}, 0, fmt.Errorf("keys: generating secret: %w", err)
	}
	k := a.fresh
	old := a.secrets[pk.Base()]
	next := old.Epoch + 1
	a.record(pk.Base(), old)
	a.secrets[pk.Base()] = EpochKey{Key: k, Epoch: next}
	return k, next, nil
}

// EnvelopeForEpoch seals the current partition secret, epoch-tagged, to
// the named node's public key, returning the envelope and the epoch it
// carries.
func (a *PartitionAuthority) EnvelopeForEpoch(pk packet.PKey, node string) (Envelope, uint32, error) {
	pub, ok := a.dir.Lookup(node)
	if !ok {
		return Envelope{}, 0, fmt.Errorf("keys: node %q not in public-key directory", node)
	}
	if _, err := a.EnsureSecret(pk); err != nil {
		return Envelope{}, 0, err
	}
	ek := a.secrets[pk.Base()]
	env, err := SealEpoch(a.rng, pub, ek.Key, ek.Epoch)
	if err != nil {
		return Envelope{}, 0, err
	}
	return env, ek.Epoch, nil
}

// IssueQPSecret implements the QP-level issuance step (paper section 4.3):
// generate a fresh secret and seal it to the requesting node's public key.
// The issuer installs the plaintext in its own receive table; the sealed
// envelope travels back with the Q_Key response.
func IssueQPSecret(rng io.Reader, dir *Directory, requester string) (SecretKey, Envelope, error) {
	pub, ok := dir.Lookup(requester)
	if !ok {
		return SecretKey{}, Envelope{}, fmt.Errorf("keys: requester %q not in directory", requester)
	}
	k, err := NewSecretKey(rng)
	if err != nil {
		return SecretKey{}, Envelope{}, err
	}
	env, err := Seal(rng, pub, k)
	if err != nil {
		return SecretKey{}, Envelope{}, err
	}
	return k, env, nil
}
