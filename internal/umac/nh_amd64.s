#include "textflag.h"

// bswap32 reverses the four bytes of every 32-bit word of a YMM register
// under VPSHUFB, turning message bytes into RFC 4418's big-endian words.
DATA bswap32<>+0x00(SB)/8, $0x0405060700010203
DATA bswap32<>+0x08(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+0x10(SB)/8, $0x0405060700010203
DATA bswap32<>+0x18(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $32

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func nhAVX2(buf []byte, k []uint32) uint64
//
// len(buf) is a multiple of 32 and k holds at least len(buf)/4 words. A
// group is eight message words m0..m7 and their key words k0..k7; it adds
// (m0+k0)(m4+k4) + (m1+k1)(m5+k5) + (m2+k2)(m6+k6) + (m3+k3)(m7+k7), the
// sums mod 2^32 and the products and total mod 2^64.
TEXT ·nhAVX2(SB), NOSPLIT, $0-56
	MOVQ    buf_base+0(FP), SI
	MOVQ    buf_len+8(FP), CX
	MOVQ    k_base+24(FP), DI
	VMOVDQU bswap32<>(SB), Y8
	VPXOR   Y0, Y0, Y0
	VPXOR   Y1, Y1, Y1

pairs:
	// Two groups, a in Y2 and b in Y3: words plus key words.
	CMPQ       CX, $64
	JB         single
	VMOVDQU    (SI), Y2
	VMOVDQU    32(SI), Y3
	VPSHUFB    Y8, Y2, Y2
	VPSHUFB    Y8, Y3, Y3
	VPADDD     (DI), Y2, Y2
	VPADDD     32(DI), Y3, Y3

	// Y4 = a0..a3 | b0..b3 and Y5 = a4..a7 | b4..b7, so word i of each
	// group sits in the lane slot of word i+4.
	VPERM2I128 $0x20, Y3, Y2, Y4
	VPERM2I128 $0x31, Y3, Y2, Y5

	// The even words multiply in place, the odd ones once shifted down.
	VPMULUDQ   Y4, Y5, Y6
	VPSRLQ     $32, Y4, Y4
	VPSRLQ     $32, Y5, Y5
	VPMULUDQ   Y4, Y5, Y7
	VPADDQ     Y6, Y0, Y0
	VPADDQ     Y7, Y1, Y1
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $64, CX
	JMP        pairs

single:
	// Fold the accumulators into X0; a last odd group runs in XMM halves.
	VPADDQ       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	CMPQ         CX, $32
	JB           done
	VMOVDQU      (SI), X2
	VMOVDQU      16(SI), X3
	VPSHUFB      X8, X2, X2
	VPSHUFB      X8, X3, X3
	VPADDD       (DI), X2, X2
	VPADDD       16(DI), X3, X3
	VPMULUDQ     X2, X3, X4
	VPSRLQ       $32, X2, X2
	VPSRLQ       $32, X3, X3
	VPMULUDQ     X2, X3, X5
	VPADDQ       X4, X0, X0
	VPADDQ       X5, X0, X0

done:
	VPSHUFD $0x4e, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ   X0, ret+48(FP)
	VZEROUPPER
	RET
