package fabric

import (
	"testing"
	"unsafe"
)

// TestBlockSize pins the message block at 280 bytes on 64-bit platforms,
// inside the runtime's 288-byte size class: every message in flight is one
// block, so a field that spills into a new word (the delivery's wire size
// belongs in the padding after VL and Attack) grows every message's
// allocation and alloc_bytes_per_hop with it.
func TestBlockSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned layout is the 64-bit one")
	}
	if got := unsafe.Sizeof(block{}); got != 280 {
		t.Fatalf("unsafe.Sizeof(block{}) = %d, want 280 (288-byte size class)", got)
	}
}
