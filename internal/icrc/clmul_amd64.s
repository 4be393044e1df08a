#include "textflag.h"

// bswapMask reverses the 16 bytes of an XMM register under PSHUFB, so a
// block loaded from memory holds its first byte in bits 120-127.
DATA bswapMask<>+0x00(SB)/8, $0x08090a0b0c0d0e0f
DATA bswapMask<>+0x08(SB)/8, $0x0001020304050607
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func fold16(crc uint16, p []byte) (hi, lo uint64)
//
// len(p) is a multiple of 16 and at least 16. The result A = hi·x^64 + lo
// is congruent, modulo the CRC-16 generator, to crc·x^(8·len(p)-16) + D(x),
// where D is p read MSB-first; see update16 in clmul_amd64.go.
TEXT ·fold16(SB), NOSPLIT, $0-48
	MOVWQZX crc+0(FP), AX
	MOVQ    p_base+8(FP), SI
	MOVQ    p_len+16(FP), CX
	MOVOU   bswapMask<>(SB), X14

	// crc into bits 112-127 of the first block.
	SHLQ   $48, AX
	MOVQ   AX, X13
	PSLLDQ $8, X13
	MOVOU  (SI), X0
	PSHUFB X14, X0
	PXOR   X13, X0
	ADDQ   $16, SI
	SUBQ   $16, CX

	CMPQ CX, $48
	JB   single

	// Four accumulators, one per 16-byte lane of a 64-byte stride.
	MOVOU  (SI), X1
	PSHUFB X14, X1
	MOVOU  16(SI), X2
	PSHUFB X14, X2
	MOVOU  32(SI), X3
	PSHUFB X14, X3
	ADDQ   $48, SI
	SUBQ   $48, CX
	MOVOU  ·foldK+0(SB), X12 // lo: x^512 mod P, hi: x^576 mod P

loop4:
	CMPQ CX, $64
	JB   merge

	MOVO      X0, X4
	MOVO      X1, X5
	MOVO      X2, X6
	MOVO      X3, X7
	PCLMULQDQ $0x00, X12, X0
	PCLMULQDQ $0x00, X12, X1
	PCLMULQDQ $0x00, X12, X2
	PCLMULQDQ $0x00, X12, X3
	PCLMULQDQ $0x11, X12, X4
	PCLMULQDQ $0x11, X12, X5
	PCLMULQDQ $0x11, X12, X6
	PCLMULQDQ $0x11, X12, X7
	MOVOU     (SI), X8
	MOVOU     16(SI), X9
	MOVOU     32(SI), X10
	MOVOU     48(SI), X11
	PSHUFB    X14, X8
	PSHUFB    X14, X9
	PSHUFB    X14, X10
	PSHUFB    X14, X11
	PXOR      X4, X0
	PXOR      X5, X1
	PXOR      X6, X2
	PXOR      X7, X3
	PXOR      X8, X0
	PXOR      X9, X1
	PXOR      X10, X2
	PXOR      X11, X3
	ADDQ      $64, SI
	SUBQ      $64, CX
	JMP       loop4

merge:
	// A = ((X0·x^128 + X1)·x^128 + X2)·x^128 + X3.
	MOVOU     ·foldK+16(SB), X12 // lo: x^128 mod P, hi: x^192 mod P
	MOVO      X0, X4
	PCLMULQDQ $0x00, X12, X0
	PCLMULQDQ $0x11, X12, X4
	PXOR      X4, X0
	PXOR      X1, X0
	MOVO      X0, X4
	PCLMULQDQ $0x00, X12, X0
	PCLMULQDQ $0x11, X12, X4
	PXOR      X4, X0
	PXOR      X2, X0
	MOVO      X0, X4
	PCLMULQDQ $0x00, X12, X0
	PCLMULQDQ $0x11, X12, X4
	PXOR      X4, X0
	PXOR      X3, X0
	JMP       loop1

single:
	MOVOU ·foldK+16(SB), X12

loop1:
	CMPQ CX, $16
	JB   done

	MOVO      X0, X4
	PCLMULQDQ $0x00, X12, X0
	PCLMULQDQ $0x11, X12, X4
	MOVOU     (SI), X5
	PSHUFB    X14, X5
	PXOR      X4, X0
	PXOR      X5, X0
	ADDQ      $16, SI
	SUBQ      $16, CX
	JMP       loop1

done:
	MOVQ   X0, lo+40(FP)
	PSRLDQ $8, X0
	MOVQ   X0, hi+32(FP)
	RET
