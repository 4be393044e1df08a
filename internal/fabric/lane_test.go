package fabric

import (
	"slices"
	"testing"
	"unsafe"
)

// TestChannelSize holds a link channel within 224 bytes on 64-bit
// platforms (DESIGN §8, "Link channel layout"): a fabric makes two per
// link in one slab, so a 4×4 mesh's 80 fit one 18 KiB small-object
// allocation. With all sixteen lanes, their WRR quanta and HOQ counters
// inline a channel was 1 400 bytes, most of a 4×4 Build; with sixteen
// lane pointers and credit counts and the plane state inline, 544.
func TestChannelSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned layout is the 64-bit one")
	}
	if got := unsafe.Sizeof(outChannel{}); got > 224 {
		t.Fatalf("unsafe.Sizeof(outChannel{}) = %d, want at most 224", got)
	}
}

// TestLaneLifecycle follows a channel's lanes through their life: the
// first push on a VL carves its lane, linked in VL order, and a VL never
// used gets none; a link taken down empties its lanes but keeps them,
// and back up it has every credit and carves nothing anew; a lane that
// outgrows its own ring moves to a grown one in FIFO order; a lane never
// made reads empty.
func TestLaneLifecycle(t *testing.T) {
	params := DefaultParams()
	s, a, _, _ := twoHCAs(t, params)
	c := a.port.out
	send := func(n int) {
		for i := 0; i < n; i++ {
			a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 64), Class: ClassRealtime, VL: VLRealtime})
			a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort})
		}
	}
	lanes := func() []*lane {
		var ls []*lane
		for q := c.lanes; q != nil; q = q.next {
			ls = append(ls, q)
		}
		return ls
	}
	if c.lanes != nil {
		t.Fatal("a lane before any push")
	}
	send(3)
	made := lanes()
	if len(made) != 2 || made[0].vl != VLBestEffort || made[1].vl != VLRealtime {
		t.Fatalf("after pushes on VLs %d and %d the lanes are %v, want both in VL order", VLRealtime, VLBestEffort, made)
	}
	for vl := uint8(0); vl < NumVLs; vl++ {
		if used := vl == VLBestEffort || vl == VLRealtime; (c.laneOf(vl) != nil) != used {
			t.Fatalf("VL %d: lane made %v, VL used %v", vl, c.laneOf(vl) != nil, used)
		}
	}
	if c.qlen(VLBestEffort)+c.qlen(VLRealtime) == 0 || int(c.credits()[VLRealtime]) == params.CreditsPerVL {
		t.Fatal("nothing queued and no credit spent: the reset below shows nothing")
	}

	left := len(params.pool.lanes)
	a.SetLinkState(false)
	if !slices.Equal(lanes(), made) {
		t.Fatal("link-down replaced or dropped a lane")
	}
	for vl := uint8(0); vl < NumVLs; vl++ {
		if n := c.qlen(vl); n != 0 {
			t.Fatalf("VL %d holds %d packets after link-down", vl, n)
		}
	}
	if c.occupied != 0 {
		t.Fatalf("occupancy mask after link-down: %#04x, want 0", c.occupied)
	}
	a.SetLinkState(true)
	for vl, n := range c.credits() {
		if int(n) != params.CreditsPerVL {
			t.Fatalf("VL %d has %d credits after the link came back, want %d", vl, n, params.CreditsPerVL)
		}
	}
	if c.starved != 0 {
		t.Fatalf("starved mask after the link came back: %#04x, want 0", c.starved)
	}
	send(3)
	if !slices.Equal(lanes(), made) || len(params.pool.lanes) != left {
		t.Fatal("the link back up carved lanes anew")
	}
	s.Run()

	// Twenty packets outgrow the lane's own eight slots.
	var ch outChannel
	ch.params = DefaultParams()
	const vl = 3
	ds := make([]*Delivery, 20)
	var q *lane
	for i := range ds {
		ds[i] = &Delivery{}
		q = ch.push(vl, ds[i])
	}
	if &q.ring[0] == &q.first[0] || len(q.ring) != 32 {
		t.Fatalf("%d packets on a ring of %d, still the lane's own: %v", len(ds), len(q.ring), &q.ring[0] == &q.first[0])
	}
	for i, d := range q.first {
		if d != nil {
			t.Fatalf("the outgrown first ring still references a delivery at %d", i)
		}
	}
	for i := range ds {
		if ch.pop(q) != ds[i] {
			t.Fatalf("pop %d out of FIFO order", i)
		}
	}
	for v := uint8(0); v < NumVLs; v++ {
		if v != vl && (ch.laneOf(v) != nil || ch.qlen(v) != 0) {
			t.Fatalf("VL %d: a lane never pushed reads %d packets, made %v", v, ch.qlen(v), ch.laneOf(v) != nil)
		}
	}
	if ch.qlen(vl) != 0 || ch.occupied != 0 {
		t.Fatalf("drained lane reads %d packets, mask %#04x", ch.qlen(vl), ch.occupied)
	}
}
