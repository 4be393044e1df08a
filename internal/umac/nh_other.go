//go:build !amd64

package umac

// hasAVX2 is false off amd64: nhGroups runs nhGo.
const hasAVX2 = false

// nhAVX2 exists off amd64 only so nhGroups and the kernel tests build;
// hasAVX2 keeps every caller from reaching it.
func nhAVX2(buf []byte, k []uint32) uint64 { panic("umac: no AVX2 NH kernel off amd64") }
