package fabric

import (
	"testing"
	"unsafe"

	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// TestBlockSize pins the message block at 280 bytes on 64-bit platforms:
// every message in flight is one block of a slab, so a field that spills
// into a new word (the delivery's wire size belongs in the padding after
// VL and Attack) grows every block, and alloc_bytes_per_hop with it.
func TestBlockSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned layout is the 64-bit one")
	}
	if got := unsafe.Sizeof(block{}); got != 280 {
		t.Fatalf("unsafe.Sizeof(block{}) = %d, want 280", got)
	}
}

// A fabric's warm-up draws from slabs (DESIGN §8, "A run's fixed cost"):
// 64 messages of a 64-byte payload take their blocks and wire images from
// about a dozen slabs, not 128 allocations, each image carved at exactly
// its size;
// and every lane a fabric's links use, each with its first ring, comes
// from a slab of one lane per channel.
func TestWarmUpDrawsFromSlabs(t *testing.T) {
	const msgs = 64
	allocs := testing.AllocsPerRun(3, func() {
		params := DefaultParams()
		for i := 0; i < msgs; i++ {
			d := params.NewMessage(ClassBestEffort, packet.LRH{SLID: 1, DLID: 2},
				packet.BTH{OpCode: packet.UDSendOnly}, 64)
			if size := packet.UDSendOnly.ImageSize(64); d.Pkt.ImageCap() != size {
				t.Fatalf("image capacity %d, want its size %d", d.Pkt.ImageCap(), size)
			}
		}
	})
	// The params and pool, then a slab per blockSlab blocks and at least
	// one per imageSlab images.
	if limit := 2 + (msgs+blockSlab-1)/blockSlab + (msgs+imageSlab-1)/imageSlab; allocs > float64(limit) {
		t.Errorf("drawing %d messages allocated %.0f times, limit %d", msgs, allocs, limit)
	}

	s := sim.New()
	params := DefaultParams()
	const links = 4
	hcas := NewHCAs(s, params, 2*links, func(int) string { return "hca" })
	l := NewLinks(s, params, links)
	for i := 0; i < links; i++ {
		l.Connect(hcas[2*i], 0, hcas[2*i+1], 0)
	}
	d := params.NewMessage(ClassBestEffort, packet.LRH{}, packet.BTH{OpCode: packet.UDSendOnly}, 0)
	allocs = testing.AllocsPerRun(1, func() {
		for _, h := range hcas {
			c := h.port.out
			for vl := uint8(0); vl < 2; vl++ {
				c.pop(c.push(vl, d))
			}
			c.lanes = nil // the next run carves the lanes anew
		}
	})
	// Two lanes on each of 2×links channels: two slabs of one lane per
	// channel.
	if allocs != 2 {
		t.Errorf("%d lanes allocated %.0f times, want 2", 4*links, allocs)
	}
}
