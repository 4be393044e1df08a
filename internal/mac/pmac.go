package mac

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// PMAC (Black-Rogaway) is the parallelizable MAC the paper's section 7
// points to for fast InfiniBand authentication ("NIST selected PMAC as
// one of the authentication modes of operation"): unlike CBC-style MACs
// its block computations are independent, so a hardware CA can digest all
// blocks of a packet concurrently.
//
// This is PMAC1 over AES-128: block i of the message is whitened with a
// Gray-code multiple of L = E_K(0^128) in GF(2^128), encrypted, and the
// results XOR-fold into Σ; the final (possibly partial) block is folded
// in directly (padded, or ⊕ L·x⁻¹ when full) and the tag is the
// truncated encryption of Σ. Our Authenticator wrapper folds the nonce
// in as a prefix block, as with the HMAC wrappers.

// pmacAuth implements Authenticator with a 32-bit truncated PMAC tag.
type pmacAuth struct {
	cache keyCache[pmacState]
}

// IDPMAC is the BTH Resv8a identifier for PMAC-AES128.
const IDPMAC uint8 = 5

type pmacState struct {
	block cipher.Block
	l     [16]byte     // L = E_K(0)
	lInv  [16]byte     // L · x^{-1}
	lPow  [32][16]byte // L · x^i for the ntz offset schedule
}

// NewPMAC returns the PMAC-AES128 authenticator (32-bit truncated tag).
func NewPMAC() Authenticator {
	return &pmacAuth{}
}

func (p *pmacAuth) ID() uint8    { return IDPMAC }
func (p *pmacAuth) Name() string { return "PMAC-AES128" }

// ForgeryProb for a t-bit truncated PMAC tag is ~2^-t (up to the usual
// birthday-bound terms, negligible at IBA packet counts).
func (p *pmacAuth) ForgeryProb() float64 { return 1.0 / (1 << 32) }

// gfDouble multiplies a GF(2^128) element by x (the OCB/PMAC "doubling").
func gfDouble(in [16]byte) [16]byte {
	var out [16]byte
	carry := in[0] >> 7
	for i := 0; i < 15; i++ {
		out[i] = in[i]<<1 | in[i+1]>>7
	}
	out[15] = in[15] << 1
	if carry != 0 {
		out[15] ^= 0x87
	}
	return out
}

// gfHalve multiplies by x^{-1}.
func gfHalve(in [16]byte) [16]byte {
	var out [16]byte
	lsb := in[15] & 1
	for i := 15; i > 0; i-- {
		out[i] = in[i]>>1 | in[i-1]<<7
	}
	out[0] = in[0] >> 1
	if lsb != 0 {
		out[0] ^= 0x80
		out[15] ^= 0x43
	}
	return out
}

func xor16(dst *[16]byte, src [16]byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// setKey expands a 16-byte key into st's offset schedule, in place.
func (st *pmacState) setKey(key []byte) error {
	block, err := aes.NewCipher(key)
	if err != nil {
		return err
	}
	st.block = block
	st.lInv = [16]byte{} // E_K(0): the zero block, encrypted into l
	block.Encrypt(st.l[:], st.lInv[:])
	st.lInv = gfHalve(st.l)
	// Precompute L·x^i for i up to log2(max blocks); 32 covers any
	// message this library authenticates.
	cur := st.l
	for i := range st.lPow {
		st.lPow[i] = cur
		cur = gfDouble(cur)
	}
	return nil
}

// Tag computes the 32-bit truncated PMAC over nonce||msg.
func (p *pmacAuth) Tag(key, msg []byte, nonce uint64) (uint32, error) {
	if len(key) != 16 {
		return 0, fmt.Errorf("mac: PMAC requires a 16-byte key, got %d", len(key))
	}
	st, err := p.cache.get(key, (*pmacState).setKey)
	if err != nil {
		return 0, err
	}
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	full := make([]byte, 0, 8+len(msg))
	full = append(full, nb[:]...)
	full = append(full, msg...)

	var sigma, offset, buf, enc [16]byte
	nBlocks := (len(full) + 15) / 16
	if nBlocks == 0 {
		nBlocks = 1
	}
	// All blocks except the last: Σ ⊕= E_K(M_i ⊕ offset_i), with
	// offset_i advanced by L·x^{ntz(i)} (Gray-code schedule).
	for i := 1; i < nBlocks; i++ {
		xor16(&offset, st.lPow[bits.TrailingZeros(uint(i))])
		copy(buf[:], full[(i-1)*16:i*16])
		xor16(&buf, offset)
		st.block.Encrypt(enc[:], buf[:])
		xor16(&sigma, enc)
	}
	// Final block handling.
	last := full[(nBlocks-1)*16:]
	if len(last) == 16 {
		copy(buf[:], last)
		xor16(&sigma, buf)
		xor16(&sigma, st.lInv)
	} else {
		var padded [16]byte
		copy(padded[:], last)
		padded[len(last)] = 0x80
		xor16(&sigma, padded)
	}
	st.block.Encrypt(enc[:], sigma[:])
	return binary.BigEndian.Uint32(enc[:4]), nil
}
