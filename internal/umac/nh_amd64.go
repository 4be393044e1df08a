package umac

// hasAVX2 reports whether nhGroups runs nhAVX2: CPUID leaf 1 ECX bits 27
// (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2 (the OS saves XMM and YMM
// state), and leaf 7 EBX bit 5 (AVX2).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xgetbv0()&xmmYMM != xmmYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid returns the registers CPUID reports for leaf and sub-leaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of XCR0, the state components the OS saves.
func xgetbv0() uint32

// nhAVX2 is nhGo on two 32-byte groups per iteration in YMM registers.
//
//go:noescape
func nhAVX2(buf []byte, k []uint32) uint64
