package fabric

import (
	"math/rand"
	"testing"

	"ibasec/internal/sim"
)

// TestVLQueueMatchesSlice drives a vlQueue and a plain slice with the
// same random pushes and pops — bursts deep enough to double the ring
// several times, drains to empty, and long stretches hovering around a
// fixed depth so the head index laps the ring many times — and requires
// the same FIFO order, length and head throughout.
func TestVLQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q vlQueue
	var model []*Delivery
	check := func(step int) {
		t.Helper()
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, q.len(), len(model))
		}
		if len(model) > 0 && q.head() != model[0] {
			t.Fatalf("step %d: head differs from the model's", step)
		}
		if n := len(q.ring); n&(n-1) != 0 {
			t.Fatalf("step %d: ring length %d is not a power of two", step, n)
		}
	}
	for step := 0; step < 20000; step++ {
		// The push bias cycles: fill, hover, drain.
		bias := []int{7, 5, 5, 2}[step/500%4]
		if rng.Intn(10) < bias {
			d := &Delivery{}
			q.push(d)
			model = append(model, d)
		} else if len(model) > 0 {
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop out of FIFO order", step)
			}
			model = model[1:]
		}
		check(step)
	}
	for len(model) > 0 {
		if q.pop() != model[0] {
			t.Fatal("drain out of FIFO order")
		}
		model = model[1:]
	}
	check(-1)
	for i, d := range q.ring {
		if d != nil {
			t.Fatalf("drained ring still references a delivery at %d", i)
		}
	}
}

// A queue in steady state reuses its ring: no allocation however many
// packets pass through.
func TestVLQueueSteadyStateAllocs(t *testing.T) {
	var q vlQueue
	ds := make([]*Delivery, 6)
	for i := range ds {
		ds[i] = &Delivery{}
		q.push(ds[i])
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			q.push(q.pop())
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocated %.1f times per run", allocs)
	}
}

// blackholeLog records the deliveries an Observer sees blackholed.
type blackholeLog struct{ seen []*Delivery }

func (l *blackholeLog) Observe(_ sim.Time, kind ObsKind, _ string, d *Delivery) {
	if kind == ObsBlackhole {
		l.seen = append(l.seen, d)
	}
}

// Taking a link down destroys everything queued on it, lane by lane in
// FIFO order, and leaves each lane empty, kept for the link's return, and
// holding no destroyed packet.
func TestSetDownDrainsQueuesInOrder(t *testing.T) {
	params := DefaultParams()
	log := &blackholeLog{}
	params.Observer = log
	_, a, _, _ := twoHCAs(t, params)

	var sent []*Delivery
	for i := 0; i < 12; i++ {
		d := &Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 64), Class: ClassBestEffort, VL: VLBestEffort}
		sent = append(sent, d)
		a.Send(d)
	}
	// The first packet is on the serializer; the rest wait behind it.
	queued := sent[1:]
	if got := a.SendQueueLen(VLBestEffort); got != len(queued) {
		t.Fatalf("%d packets queued, want %d", got, len(queued))
	}
	a.SetLinkState(false)
	if len(log.seen) != len(queued) {
		t.Fatalf("link-down blackholed %d packets, want %d", len(log.seen), len(queued))
	}
	for i, d := range log.seen {
		if d != queued[i] {
			t.Fatalf("blackholed packet %d out of FIFO order", i)
		}
	}
	q := a.port.out.laneOf(VLBestEffort)
	if q == nil || q.len() != 0 {
		t.Fatalf("lane after link-down: %v, want kept and empty", q)
	}
	for i, d := range q.ring {
		if d != nil {
			t.Fatalf("drained lane still references a delivery at %d", i)
		}
	}
	if m := a.port.out.occupied; m != 0 {
		t.Fatalf("occupancy mask after link-down: %#04x, want 0", m)
	}
}

// pickVLScan is the arbiter pickVL replaced, kept as its reference: all
// sixteen lanes in round-robin order from the cursor, the first eligible
// lane of the highest priority wins.
func pickVLScan(c *outChannel) int {
	bestPrio := -1 << 31
	best := -1
	for off := 0; off < NumVLs; off++ {
		vl := (int(c.rr) + off) % NumVLs
		if c.qlen(uint8(vl)) == 0 || c.credits()[vl] <= 0 {
			continue
		}
		if p := c.params.VLPriority[vl]; p > bestPrio {
			bestPrio = p
			best = vl
		}
	}
	return best
}

// The occupancy mask visits only non-empty lanes but must pick exactly
// the lane the full scan picks: for one lane, two lanes at the ends of
// the range and all sixteen, under flat, default and all-distinct
// priorities, with and without credit-less lanes, from every cursor
// position — and again after pops empty some of the lanes.
func TestPickVLMatchesFullScan(t *testing.T) {
	all := make([]int, NumVLs)
	for vl := range all {
		all[vl] = vl
	}
	flat, distinct := DefaultParams(), DefaultParams()
	flat.VLPriority = [NumVLs]int{}
	for vl := range distinct.VLPriority {
		distinct.VLPriority[vl] = (vl * 7) % NumVLs
	}
	for _, lanes := range [][]int{{0}, {1, 15}, all, {}} {
		for pi, params := range []*Params{flat, DefaultParams(), distinct} {
			for _, starved := range [][]int{nil, {1}, {0, 15}} {
				c := &outChannel{params: params}
				for _, vl := range lanes {
					c.push(uint8(vl), &Delivery{})
					c.push(uint8(vl), &Delivery{})
				}
				for _, vl := range starved {
					c.setCredits(uint8(vl), 0)
				}
				check := func(when string) {
					t.Helper()
					for rr := 0; rr < NumVLs; rr++ {
						c.rr = uint8(rr)
						if got, want := c.pickVL(), pickVLScan(c); got != want {
							t.Fatalf("lanes %v, priorities #%d, starved %v, cursor %d, %s: picked VL %d, full scan picks %d",
								lanes, pi, starved, rr, when, got, want)
						}
					}
				}
				check("full")
				for i, vl := range lanes {
					c.pop(c.laneOf(uint8(vl))) // one left: lane stays occupied
					if i%2 == 0 {
						c.pop(c.laneOf(uint8(vl))) // emptied: lane must leave the mask
					}
					check("draining")
				}
			}
		}
	}
}
