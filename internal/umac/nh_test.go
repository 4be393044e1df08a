package umac

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refNHGroups is NH's word-at-a-time loop: each of a group's four
// products indexes message and key words one at a time, the key index
// reduced mod nhWords. Every NH kernel must agree with it bit for bit.
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

// refL3 is RFC 4418's L3-HASH stated directly: the 16-byte input as
// eight big-endian 16-bit words, each times its key integer, summed mod
// 2^36-5, the low 32 bits XORed with the whitening key.
func refL3(it *iteration, m [16]byte) [4]byte {
	var y uint64
	for i := 0; i < 8; i++ {
		y += uint64(binary.BigEndian.Uint16(m[2*i:])) * it.l3k1[i]
	}
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], uint32(y%p36))
	for i := range out {
		out[i] ^= it.l3k2[i]
	}
	return out
}

// refL3Of is refL3 of the 16 bytes hi||lo.
func refL3Of(it *iteration, hi, lo uint64) [4]byte {
	var m [16]byte
	binary.BigEndian.PutUint64(m[:8], hi)
	binary.BigEndian.PutUint64(m[8:], lo)
	return refL3(it, m)
}

// refUHASH is uhash with refNH as its L1 layer and refL3 as its L3, for
// messages within POLY-64's range.
func refUHASH(it *iteration, msg []byte) [4]byte {
	if len(msg) <= l1BlockSize {
		return refL3Of(it, 0, refNH(it, msg))
	}
	var l2 []byte
	for off := 0; off < len(msg); off += l1BlockSize {
		l2 = binary.BigEndian.AppendUint64(l2, refNH(it, msg[off:min(off+l1BlockSize, len(msg))]))
	}
	return refL3Of(it, 0, poly64(it.k64, l2))
}

// TestL3MatchesReference holds l3 to refL3 on both halves of its input:
// a POLY-64 output fills only lo, a POLY-128 output (messages past 2 MiB,
// which no RFC vector reaches) fills hi too.
func TestL3MatchesReference(t *testing.T) {
	u := mustNew(t, testKey)
	rng := rand.New(rand.NewSource(36))
	ins := [][2]uint64{{0, 0}, {0, ^uint64(0)}, {^uint64(0), 0}, {^uint64(0), ^uint64(0)}}
	for i := 0; i < 1000; i++ {
		ins = append(ins, [2]uint64{rng.Uint64(), rng.Uint64()}, [2]uint64{0, rng.Uint64()})
	}
	for i := range u.iters {
		it := &u.iters[i]
		for _, in := range ins {
			if got, want := l3(it, in[0], in[1]), refL3Of(it, in[0], in[1]); got != want {
				t.Fatalf("iteration %d: l3(%#x, %#x) = %x, reference %x", i, in[0], in[1], got, want)
			}
		}
	}
}

// nhKernel is one of the kernels nhGroups dispatches to, named as in
// BenchmarkNH1024.
type nhKernel struct {
	name string
	fn   func(buf []byte, k []uint32) uint64
}

// nhKernels returns every NH kernel this host can run: nhGo always, and
// nhAVX2 where the CPU has AVX2. Without it the skip is logged, as the
// kernel is then never exercised.
func nhKernels(t testing.TB) []nhKernel {
	kernels := []nhKernel{{"go", nhGo}}
	if hasAVX2 {
		return append(kernels, nhKernel{"avx2", nhAVX2})
	}
	t.Log("no AVX2 (or not amd64): nhGroups runs nhGo, the AVX2 kernel is not exercised")
	return kernels
}

// TestNHKernelsAgree holds each kernel, called directly, to the
// word-at-a-time reference: every whole-group length up to one block,
// every key offset first, and every start address mod 32, so the
// message is misaligned by 1–31 bytes as well as aligned.
func TestNHKernelsAgree(t *testing.T) {
	kernels := nhKernels(t)
	it := &mustNew(t, testKey).iters[0]
	buf := make([]byte, l1BlockSize+31)
	rand.New(rand.NewSource(4418)).Read(buf)
	for shift := 0; shift < 32; shift++ {
		for n := 0; n <= l1BlockSize; n += 32 {
			msg := buf[shift : shift+n]
			for first := 0; first+n/4 <= nhWords; first++ {
				want := refNHGroups(it, msg, first)
				for _, kern := range kernels {
					if got := kern.fn(msg, it.l1key[first:first+n/4]); got != want {
						t.Fatalf("%s: %d bytes at shift %d, first %d = %#x, reference %#x", kern.name, n, shift, first, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkNH1024 times each kernel over one whole block, so ns/op is
// the kernel's cost per KiB of message.
func BenchmarkNH1024(b *testing.B) {
	it := &mustNew(b, testKey).iters[0]
	msg := make([]byte, l1BlockSize)
	rand.New(rand.NewSource(1024)).Read(msg)
	for _, kern := range nhKernels(b) {
		b.Run(kern.name, func(b *testing.B) {
			b.SetBytes(l1BlockSize)
			var y uint64
			for i := 0; i < b.N; i++ {
				y += kern.fn(msg, it.l1key[:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/KiB")
			nhSink = y
		})
	}
}

// nhSink keeps BenchmarkNH1024's sums live.
var nhSink uint64

// FuzzNH holds the NH kernels to the word-at-a-time reference: each
// kernel and the nhGroups dispatch at every key offset a block's whole
// groups can start at, nh on every block, and Tag32 and Tag64 through
// uhash, under fuzzed keys, nonces and messages of 0–4096 bytes.
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
		kernels := nhKernels(t)
		for i := range u.iters {
			it := &u.iters[i]
			groups := msg[:min(len(msg)/32*32, l1BlockSize)]
			for first := 0; first+len(groups)/4 <= nhWords; first++ {
				want := refNHGroups(it, groups, first)
				if got := nhGroups(it, groups, first); got != want {
					t.Fatalf("iteration %d: nhGroups(%d bytes, first %d) = %#x, reference %#x", i, len(groups), first, got, want)
				}
				for _, kern := range kernels {
					if got := kern.fn(groups, it.l1key[first:first+len(groups)/4]); got != want {
						t.Fatalf("iteration %d: %s kernel (%d bytes, first %d) = %#x, reference %#x", i, kern.name, len(groups), first, got, want)
					}
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
