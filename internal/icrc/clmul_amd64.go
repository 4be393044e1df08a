package icrc

import "encoding/binary"

// hasCLMUL reports whether update16 folds with PCLMULQDQ: CPUID leaf 1
// ECX bit 1 (PCLMULQDQ) and bit 9 (SSSE3, for PSHUFB).
var hasCLMUL = cpuid1ECX()&(1<<1|1<<9) == 1<<1|1<<9

// foldK holds x^512, x^576, x^128 and x^192 mod the CRC-16 generator, the
// multipliers that advance a 128-bit accumulator by 64 bytes (the first
// pair) or by 16 bytes (the second). fold16 reads them in that order.
var foldK = [4]uint64{xPow16(512), xPow16(576), xPow16(128), xPow16(192)}

// xPow16 returns x^k mod the CRC-16 generator.
func xPow16(k int) uint64 {
	r := uint32(1)
	for ; k > 0; k-- {
		r <<= 1
		if r&0x10000 != 0 {
			r ^= 0x10000 | poly16
		}
	}
	return uint64(r)
}

func cpuid1ECX() uint32

//go:noescape
func fold16(crc uint16, p []byte) (hi, lo uint64)

// update16 advances a CRC-16 register over data. From 32 bytes on, and
// where the CPU has PCLMULQDQ and SSSE3, fold16 reduces the whole 16-byte
// blocks to one 128-bit A ≡ crc·x^(8m−16) + D(x), m their length; feeding
// A's 16 bytes to the table kernel from a zero register gives A·x^16 mod
// the generator, which is the register after those blocks. The ragged tail
// and every shorter input run on update16Table.
func update16(crc uint16, data []byte) uint16 {
	if len(data) >= 32 && hasCLMUL {
		m := len(data) &^ 15
		hi, lo := fold16(crc, data[:m])
		var a [16]byte
		binary.BigEndian.PutUint64(a[:8], hi)
		binary.BigEndian.PutUint64(a[8:], lo)
		crc, data = update16Table(0, a[:]), data[m:]
	}
	return update16Table(crc, data)
}
