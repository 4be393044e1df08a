// Package umac implements UMAC message authentication (Black, Halevi,
// Krawczyk, Krovetz, Rogaway — CRYPTO '99; RFC 4418 structure), the fast
// universal-hash MAC the paper selects for InfiniBand authentication
// because it reaches multi-Gb/s rates with provable 2^-30 forgery
// probability at a 32-bit tag (section 5.2, Table 4).
//
// The construction is UHASH composed with an AES-based pad:
//
//	Tag = UHASH(K, M)  XOR  PDF(K, Nonce)
//
// where UHASH is a three-layer keyed hash:
//
//	L1: NH — 1024-byte blocks compressed with the NH inner product
//	    over 32-bit words (the SIMD-friendly layer; the paper's speed
//	    numbers come from MMX implementations of exactly this loop,
//	    and here it runs in AVX2 on amd64 CPUs that have it and as an
//	    unrolled Go loop elsewhere),
//	L2: polynomial evaluation hash over the prime 2^64-59,
//	L3: inner-product hash over the prime 2^36-5 producing 4 bytes.
//
// Subkeys are derived from the 16-byte user key with an AES-CTR style KDF.
// The simulator tags with UMAC-32 (one UHASH iteration); SetKey also
// derives UMAC-64's second, Toeplitz-shifted iteration, through which the
// tests check the KDF against RFC 4418's UMAC-64 vectors.
//
// The implementation is bit-exact against the RFC 4418 test vectors for
// UMAC-32 and UMAC-64 (see umac_vectors_test.go), which cover messages up
// to 2^15 bytes. Beyond 2^17 bits of L1 output (2 MiB of message) the L2
// layer ramps from POLY-64 to POLY-128 following the RFC's construction;
// those sizes are regression-pinned rather than RFC-verified, and
// InfiniBand packets (≤ 1 KiB) never leave the vector-verified regime.
// Messages are capped at 16 MiB to bound the L1-output buffer.
package umac

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// KeySize is the UMAC user-key size in bytes (an AES-128 key).
const KeySize = 16

// NonceSize is the nonce size in bytes used by this implementation.
const NonceSize = 8

// MaxMessage is the largest message this implementation authenticates.
const MaxMessage = 1 << 24

// Primes used by the L2 and L3 hashes.
const (
	p36 = 1<<36 - 5
	p64 = 0xFFFFFFFFFFFFFFC5 // 2^64 - 59

	// POLY-64 word-range handling (RFC 4418 section 5.3).
	maxWordRange = 0xFFFFFFFF00000000 // 2^64 - 2^32
	offset64     = maxWordRange
	marker64     = p64 - 1

	l1BlockSize = 1024 // NH block size in bytes
	nhWords     = l1BlockSize / 4

	// POLY-64 handles at most 2^17 bits (2^14 bytes) of L1 output;
	// beyond that L2 ramps to POLY-128 (RFC 4418 section 5.4).
	poly64MaxBytes = 1 << 14
)

// ErrMessageTooLong is returned for messages longer than MaxMessage.
var ErrMessageTooLong = errors.New("umac: message exceeds 16 MiB limit")

// iteration holds the UHASH subkeys for one Toeplitz iteration.
type iteration struct {
	l1key [nhWords]uint32 // NH key words (big-endian str2uint)
	k64   uint64          // POLY-64 key
	k128  u128            // POLY-128 key (used beyond the POLY-64 regime)
	l3k1  [8]uint64       // L3 key integers, already reduced mod p36
	l3k2  [4]byte         // L3 output whitening
}

// iters is the number of Toeplitz iterations derived: enough for
// UMAC-64's 8-byte tag, which the tests check against RFC 4418.
const iters = 2

// UMAC holds the expanded subkeys for one 16-byte user key. It is safe for
// concurrent use after SetKey returns: tagging only reads it.
type UMAC struct {
	iters [iters]iteration
	pdf   cipher.Block // AES under the PDF subkey
	// kin and kout are the KDF's AES blocks. They cross the cipher.Block
	// interface, so they live here rather than on SetKey's stack.
	kin, kout [aes.BlockSize]byte
}

// Scratch holds the two AES blocks of one pad derivation. They cross the
// cipher.Block interface, so as locals they escape to the heap on every
// tag, so a caller that tags per packet owns one Scratch and passes it to
// Tag32UintScratch. A Scratch belongs to one goroutine; the UMAC
// it is used with may still be shared.
type Scratch struct {
	in, out [aes.BlockSize]byte
}

// SetKey expands a 16-byte user key into u's subkeys in place, replacing
// whatever key u held; only the two AES key schedules (the KDF's and the
// pad's) are allocated. The subkeys for the maximum tag length (8 bytes,
// two iterations) are always derived.
func (u *UMAC) SetKey(key []byte) error {
	if len(key) != KeySize {
		return fmt.Errorf("umac: key must be %d bytes, got %d", KeySize, len(key))
	}
	kdfCipher, err := aes.NewCipher(key)
	if err != nil {
		return err
	}
	var buf [l1BlockSize + (iters-1)*16]byte

	// L1 keys: 1024 + (iters-1)*16 bytes; iteration i uses a 16-byte
	// Toeplitz shift into the shared buffer.
	l1buf := u.kdf(kdfCipher, 1, buf[:])
	for it := 0; it < iters; it++ {
		for w := 0; w < nhWords; w++ {
			u.iters[it].l1key[w] = binary.BigEndian.Uint32(l1buf[it*16+w*4:])
		}
	}
	// L2 keys: 24 bytes per iteration; only the first 8 (masked) feed
	// POLY-64 in this implementation.
	l2buf := u.kdf(kdfCipher, 2, buf[:24*iters])
	for it := 0; it < iters; it++ {
		u.iters[it].k64 = binary.BigEndian.Uint64(l2buf[24*it:]) & 0x01FFFFFF01FFFFFF
		u.iters[it].k128 = u128{
			hi: binary.BigEndian.Uint64(l2buf[24*it+8:]) & 0x01FFFFFF01FFFFFF,
			lo: binary.BigEndian.Uint64(l2buf[24*it+16:]) & 0x01FFFFFF01FFFFFF,
		}
	}
	// L3 keys: 64 bytes of integer key + 4 bytes of whitening per
	// iteration.
	l3buf1 := u.kdf(kdfCipher, 3, buf[:64*iters])
	for it := 0; it < iters; it++ {
		for i := 0; i < 8; i++ {
			u.iters[it].l3k1[i] = binary.BigEndian.Uint64(l3buf1[64*it+8*i:]) % p36
		}
	}
	l3buf2 := u.kdf(kdfCipher, 4, buf[:4*iters])
	for it := 0; it < iters; it++ {
		copy(u.iters[it].l3k2[:], l3buf2[4*it:4*it+4])
	}
	// PDF key: a fresh AES key.
	pdfCipher, err := aes.NewCipher(u.kdf(kdfCipher, 0, buf[:KeySize]))
	if err != nil {
		return err
	}
	u.pdf = pdfCipher
	return nil
}

// kdf fills out with pseudorandom bytes for the given key index by
// encrypting (index_64 || counter_64) blocks under the user key, and
// returns it.
func (u *UMAC) kdf(block cipher.Block, index uint64, out []byte) []byte {
	binary.BigEndian.PutUint64(u.kin[0:8], index)
	for off, ctr := 0, uint64(1); off < len(out); off, ctr = off+aes.BlockSize, ctr+1 {
		binary.BigEndian.PutUint64(u.kin[8:16], ctr)
		block.Encrypt(u.kout[:], u.kin[:])
		copy(out[off:], u.kout[:])
	}
	return out
}

func (u *UMAC) tag32(s *Scratch, msg, nonce []byte) ([4]byte, error) {
	var tag [4]byte
	if len(msg) > MaxMessage {
		return tag, ErrMessageTooLong
	}
	if len(nonce) != NonceSize {
		return tag, fmt.Errorf("umac: nonce must be %d bytes, got %d", NonceSize, len(nonce))
	}
	hash := u.uhash(&u.iters[0], msg)
	pad := u.pdfBytes(s, nonce, 4)
	for i := 0; i < 4; i++ {
		tag[i] = hash[i] ^ pad[i]
	}
	return tag, nil
}

// Tag32UintScratch returns the UMAC-32 tag of msg under the 8-byte
// big-endian nonce as a uint32, the form the packet's ICRC field stores.
// The pad derivation's AES blocks live in the caller's Scratch, so a tag
// allocates nothing. A (key, nonce) pair must never authenticate two
// different messages; the transport layer uses the packet PSN and QP
// numbers to keep nonces unique.
func (u *UMAC) Tag32UintScratch(s *Scratch, msg []byte, nonce uint64) (uint32, error) {
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	t, err := u.tag32(s, msg, nb[:])
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(t[:]), nil
}

// pdfBytes computes the pad-derivation function: AES of the (low-bit
// masked, zero-extended) nonce, returning the taglen-byte chunk selected
// by the masked-off low bits.
func (u *UMAC) pdfBytes(s *Scratch, nonce []byte, taglen int) []byte {
	s.in = [aes.BlockSize]byte{}
	copy(s.in[:], nonce)
	chunks := 16 / taglen
	idx := int(s.in[NonceSize-1]) % chunks
	s.in[NonceSize-1] -= byte(idx)
	u.pdf.Encrypt(s.out[:], s.in[:])
	return s.out[idx*taglen : (idx+1)*taglen]
}

// uhash runs the three-layer hash for one iteration, returning 4 bytes.
func (u *UMAC) uhash(it *iteration, msg []byte) [4]byte {
	// L1: NH over 1024-byte blocks. The L2 input — 8 bytes per block —
	// starts on the stack and moves to the heap only past l2Stack blocks;
	// an IBA message (headers + MTU) is two.
	const l2Stack = 8
	var l2buf [8 * l2Stack]byte
	l2input := l2buf[:0]
	if len(msg) <= l1BlockSize {
		return l3(it, 0, nh(it, msg))
	}
	for off := 0; off < len(msg); off += l1BlockSize {
		end := off + l1BlockSize
		if end > len(msg) {
			end = len(msg)
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], nh(it, msg[off:end]))
		l2input = append(l2input, b[:]...)
	}
	// L2: POLY-64 over the NH outputs, ramping to POLY-128 when the L1
	// output exceeds the POLY-64 word-range budget (RFC 4418 5.4).
	if len(l2input) <= poly64MaxBytes {
		return l3(it, 0, poly64(it.k64, l2input))
	}
	y64 := poly64(it.k64, l2input[:poly64MaxBytes])
	// M2 = remainder || 0x80, zero-padded to a 16-byte multiple.
	rest := l2input[poly64MaxBytes:]
	m2 := make([]byte, 16+(len(rest)+1+15)/16*16)
	binary.BigEndian.PutUint64(m2[8:16], y64) // uint2str(y, 16) prefix
	copy(m2[16:], rest)
	m2[16+len(rest)] = 0x80
	y := poly128(it.k128, m2)
	return l3(it, y.hi, y.lo)
}

// nh compresses up to 1024 bytes with the NH hash: pairs of 32-bit
// big-endian words (RFC 4418's str2uint convention) at distance 4 are
// added to key words mod 2^32 and multiplied mod 2^64. The unpadded bit
// length is added at the end so that messages differing only in trailing
// zeros hash differently.
func nh(it *iteration, chunk []byte) uint64 {
	bitlen := uint64(len(chunk)) * 8
	// The whole 32-byte groups are read where they lie; a ragged tail is
	// zero-padded to one more group on the stack (at least one group even
	// for the empty message, per RFC 4418: empty input is treated as 32
	// zero bytes with Len = 0).
	n := len(chunk)
	whole := n / 32 * 32
	y := nhGroups(it, chunk[:whole], 0)
	if whole < n || n == 0 {
		var tail [32]byte
		copy(tail[:], chunk[whole:])
		y += nhGroups(it, tail[:], whole/4)
	}
	return y + bitlen
}

// nhGroups sums the NH products of buf, a whole number of 32-byte word
// groups whose first word pairs with key word first, on nhAVX2 where the
// CPU has AVX2 and on nhGo elsewhere. nh passes at most one 1024-byte
// block, so the key window never wraps; slicing it up front makes a
// caller that broke that panic, not truncate, and lets either kernel
// read len(buf)/4 key words without a check.
func nhGroups(it *iteration, buf []byte, first int) uint64 {
	k := it.l1key[first : first+len(buf)/4]
	if hasAVX2 {
		return nhAVX2(buf, k)
	}
	return nhGo(buf, k)
}

// nhGo is the portable NH kernel over buf's whole 32-byte groups and
// the key words k, one per message word. One iteration is one group:
// four multiply-adds on fixed-size windows of the message and the key,
// so the compiler drops every bounds check inside the loop.
func nhGo(buf []byte, k []uint32) uint64 {
	var y uint64
	for len(buf) >= 32 {
		m, kw := buf[:32:32], k[:8:8]
		y += uint64(binary.BigEndian.Uint32(m[0:])+kw[0]) * uint64(binary.BigEndian.Uint32(m[16:])+kw[4])
		y += uint64(binary.BigEndian.Uint32(m[4:])+kw[1]) * uint64(binary.BigEndian.Uint32(m[20:])+kw[5])
		y += uint64(binary.BigEndian.Uint32(m[8:])+kw[2]) * uint64(binary.BigEndian.Uint32(m[24:])+kw[6])
		y += uint64(binary.BigEndian.Uint32(m[12:])+kw[3]) * uint64(binary.BigEndian.Uint32(m[28:])+kw[7])
		buf, k = buf[32:], k[8:]
	}
	return y
}

// poly64 evaluates the polynomial hash over prime 2^64-59. Input words at
// or above 2^64-2^32 are escaped with a marker so that the hash stays
// injective on the restricted range (RFC 4418 section 5.3).
func poly64(k uint64, data []byte) uint64 {
	y := uint64(1)
	for off := 0; off < len(data); off += 8 {
		m := binary.BigEndian.Uint64(data[off:])
		if m >= maxWordRange {
			y = polyStep(k, y, marker64)
			y = polyStep(k, y, m-offset64)
		} else {
			y = polyStep(k, y, m)
		}
	}
	return y
}

// polyStep computes (k*y + m) mod p64 using 128-bit intermediate
// arithmetic. Since p64 = 2^64 - 59, hi*2^64 + lo ≡ hi*59 + lo (mod p64).
func polyStep(k, y, m uint64) uint64 {
	hi, lo := bits.Mul64(k, y)
	var carry uint64
	lo, carry = bits.Add64(lo, m, 0)
	hi += carry
	for hi != 0 {
		h2, l2 := bits.Mul64(hi, 59)
		lo, carry = bits.Add64(lo, l2, 0)
		hi = h2 + carry
	}
	if lo >= p64 {
		lo -= p64
	}
	return lo
}

// l3 hashes a 16-byte input, hi||lo read big-endian, to 4 bytes with the
// inner-product hash over prime 2^36-5, whitened with the L3 subkey. The
// eight 16-bit words are taken from the two halves by shifts: each term
// is < 2^16 * 2^36 = 2^52, so the eight fit in a uint64.
func l3(it *iteration, hi, lo uint64) [4]byte {
	k := &it.l3k1
	y := (hi>>48)*k[0] + (hi>>32&0xffff)*k[1] + (hi>>16&0xffff)*k[2] + (hi&0xffff)*k[3] +
		(lo>>48)*k[4] + (lo>>32&0xffff)*k[5] + (lo>>16&0xffff)*k[6] + (lo&0xffff)*k[7]
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], uint32(y%p36)^binary.BigEndian.Uint32(it.l3k2[:]))
	return out
}
