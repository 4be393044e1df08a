package umac

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refNHGroups is NH's word-at-a-time loop: each of a group's four
// products indexes message and key words one at a time, the key index
// reduced mod nhWords. nhGroups must agree with it bit for bit.
func refNHGroups(it *iteration, buf []byte, first int) uint64 {
	var y uint64
	for g := 0; g < len(buf)/32; g++ {
		base := g * 8
		for i := 0; i < 4; i++ {
			mw := binary.BigEndian.Uint32(buf[(base+i)*4:])
			mw4 := binary.BigEndian.Uint32(buf[(base+i+4)*4:])
			a := mw + it.l1key[(first+base+i)%nhWords]
			b := mw4 + it.l1key[(first+base+i+4)%nhWords]
			y += uint64(a) * uint64(b)
		}
	}
	return y
}

// refNH is RFC 4418's NH over one block, stated directly: zero-pad the
// chunk to a whole number of 32-byte groups (one group for the empty
// chunk), sum the products, add the unpadded bit length.
func refNH(it *iteration, chunk []byte) uint64 {
	padded := make([]byte, max(32, (len(chunk)+31)/32*32))
	copy(padded, chunk)
	return refNHGroups(it, padded, 0) + uint64(len(chunk))*8
}

// refUHASH is uhash with refNH as its L1 layer, for messages within
// POLY-64's range.
func refUHASH(it *iteration, msg []byte) [4]byte {
	var b [16]byte
	if len(msg) <= l1BlockSize {
		binary.BigEndian.PutUint64(b[8:], refNH(it, msg))
		return l3(it, b)
	}
	var l2 []byte
	for off := 0; off < len(msg); off += l1BlockSize {
		l2 = binary.BigEndian.AppendUint64(l2, refNH(it, msg[off:min(off+l1BlockSize, len(msg))]))
	}
	binary.BigEndian.PutUint64(b[8:], poly64(it.k64, l2))
	return l3(it, b)
}

// FuzzNH holds the unrolled NH kernel to the word-at-a-time reference:
// nhGroups at every key offset a block's whole groups can start at, nh
// on every block, and Tag32 and Tag64 through uhash, under fuzzed keys,
// nonces and messages of 0–4096 bytes.
func FuzzNH(f *testing.F) {
	for _, n := range []int{0, 1, 31, 32, 33, 188, 1023, 1024, 1025, 2048 + 7, 4096} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i*7 + n)
		}
		f.Add(testKey, msg, uint64(n))
	}
	f.Add([]byte{}, bytes.Repeat([]byte{0xff}, 1024), ^uint64(0))
	f.Fuzz(func(t *testing.T, key, msg []byte, nonce uint64) {
		var k [KeySize]byte
		copy(k[:], key)
		msg = msg[:min(len(msg), 4096)]
		u := mustNew(t, k[:])
		for i := range u.iters {
			it := &u.iters[i]
			groups := msg[:min(len(msg)/32*32, l1BlockSize)]
			for first := 0; first+len(groups)/4 <= nhWords; first++ {
				if got, want := nhGroups(it, groups, first), refNHGroups(it, groups, first); got != want {
					t.Fatalf("iteration %d: nhGroups(%d bytes, first %d) = %#x, reference %#x", i, len(groups), first, got, want)
				}
			}
			for off := 0; off == 0 || off < len(msg); off += l1BlockSize {
				chunk := msg[off:min(off+l1BlockSize, len(msg))]
				if got, want := nh(it, chunk), refNH(it, chunk); got != want {
					t.Fatalf("iteration %d: nh(block at %d, %d bytes) = %#x, reference %#x", i, off, len(chunk), got, want)
				}
			}
		}

		var nb [NonceSize]byte
		binary.BigEndian.PutUint64(nb[:], nonce)
		var s Scratch
		h1, h2 := refUHASH(&u.iters[0], msg), refUHASH(&u.iters[1], msg)
		var want32 [4]byte
		var want64 [8]byte
		pad32 := u.pdfBytes(&s, nb[:], 4)
		for i := range want32 {
			want32[i] = h1[i] ^ pad32[i]
		}
		pad64 := u.pdfBytes(&s, nb[:], 8)
		for i := range want32 {
			want64[i], want64[4+i] = h1[i]^pad64[i], h2[i]^pad64[4+i]
		}
		if got, err := u.Tag32(msg, nb[:]); err != nil || got != want32 {
			t.Fatalf("Tag32(%d bytes) = %x, %v; reference %x", len(msg), got, err, want32)
		}
		if got, err := u.Tag64(msg, nb[:]); err != nil || got != want64 {
			t.Fatalf("Tag64(%d bytes) = %x, %v; reference %x", len(msg), got, err, want64)
		}
	})
}
