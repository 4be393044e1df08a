package fabric

import (
	"testing"

	"ibasec/internal/sim"
)

func TestArbitrationModeString(t *testing.T) {
	if ArbStrictPriority.String() != "strict-priority" || ArbWeighted.String() != "weighted" {
		t.Fatal("names")
	}
}

// Under strict priority, a continuous realtime backlog starves
// best-effort completely until realtime drains.
func TestStrictPriorityStarves(t *testing.T) {
	params := DefaultParams()
	s, a, b, _ := twoHCAs(t, params)
	var order []Class
	b.OnDeliver = func(d *Delivery) { order = append(order, d.Class) }

	// Interleave enqueues: 6 RT and 3 BE, all before the link starts
	// draining in earnest.
	for i := 0; i < 3; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 1024), Class: ClassRealtime, VL: VLRealtime})
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 1024), Class: ClassRealtime, VL: VLRealtime})
	}
	s.Run()
	if len(order) != 9 {
		t.Fatalf("delivered %d/9", len(order))
	}
	// Permit the first packet to be BE (it may already occupy the
	// serializer); after that, all RT must precede all remaining BE.
	seenBEAfterRT := false
	seenRT := false
	for _, c := range order[1:] {
		if c == ClassRealtime {
			if seenBEAfterRT {
				t.Fatalf("strict priority violated: %v", order)
			}
			seenRT = true
		} else if seenRT {
			seenBEAfterRT = true
		}
	}
}

// Under the weighted arbiter with a high-priority limit, best-effort
// packets interleave with a realtime backlog instead of waiting for it
// to drain — the anti-starvation behaviour of the IBA two-table design.
func TestWeightedInterleavesLowPriority(t *testing.T) {
	params := DefaultParams()
	params.Arbitration = ArbWeighted
	params.HighPriLimit = 2
	s, a, b, _ := twoHCAs(t, params)
	var order []Class
	b.OnDeliver = func(d *Delivery) { order = append(order, d.Class) }

	for i := 0; i < 4; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	for i := 0; i < 8; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 1024), Class: ClassRealtime, VL: VLRealtime})
	}
	s.Run()
	if len(order) != 12 {
		t.Fatalf("delivered %d/12", len(order))
	}
	// Some best-effort packet must be served before the last realtime
	// packet (no starvation).
	lastRT := -1
	firstBEAfterStart := -1
	for i, c := range order {
		if c == ClassRealtime {
			lastRT = i
		} else if firstBEAfterStart < 0 && i > 0 {
			firstBEAfterStart = i
		}
	}
	if firstBEAfterStart < 0 || firstBEAfterStart > lastRT {
		t.Fatalf("low priority starved under weighted arbitration: %v", order)
	}
}

// HighPriLimit sets the split of bandwidth: with a limit of 3 and both
// classes backlogged, 3 of every 4 services go to realtime.
func TestWeightedProportions(t *testing.T) {
	params := DefaultParams()
	params.Arbitration = ArbWeighted
	params.HighPriLimit = 3
	s, a, b, _ := twoHCAs(t, params)
	var order []Class
	b.OnDeliver = func(d *Delivery) { order = append(order, d.Class) }

	for i := 0; i < 20; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 512), Class: ClassBestEffort, VL: VLBestEffort})
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 512), Class: ClassRealtime, VL: VLRealtime})
	}
	s.Run()
	// Inspect the first 12 services: realtime should dominate ~3:1.
	rt := 0
	for _, c := range order[:12] {
		if c == ClassRealtime {
			rt++
		}
	}
	if rt < 7 || rt > 11 {
		t.Fatalf("rt/total = %d/12, want ~9 under a high-priority limit of 3 (order %v)", rt, order[:12])
	}
}

// TestWeightedBoundsVictimLatencyUnderFlood is the DoS fairness
// regression: an attacker floods the best-effort VL of a shared port
// with a deep backlog while a victim trickles realtime packets through
// the same port. Under the weighted arbiter the victim's per-packet
// latency must stay bounded by a few wire times — it must never wait
// behind the attacker's whole backlog, whose drain time is an order of
// magnitude larger.
func TestWeightedBoundsVictimLatencyUnderFlood(t *testing.T) {
	params := DefaultParams()
	params.Arbitration = ArbWeighted
	s, a, b, _ := twoHCAs(t, params)

	var worst sim.Time
	victims := 0
	b.OnDeliver = func(d *Delivery) {
		if d.Class != ClassRealtime {
			return
		}
		victims++
		if lat := d.DeliveredAt - d.EnqueuedAt; lat > worst {
			worst = lat
		}
	}

	// 40 full-MTU attacker packets: ~270 us of backlog on the shared port.
	for i := 0; i < 40; i++ {
		a.Send(&Delivery{Pkt: mkPkt(1, 2, VLBestEffort, 1024), Class: ClassBestEffort, VL: VLBestEffort})
	}
	// Victim packets injected every 10 us while the flood is draining.
	for i := 0; i < 10; i++ {
		at := sim.Time(i+1) * 10 * sim.Microsecond
		s.ScheduleAt(at, func() {
			a.Send(&Delivery{Pkt: mkPkt(1, 2, VLRealtime, 1024), Class: ClassRealtime, VL: VLRealtime})
		})
	}
	s.Run()

	if victims != 10 {
		t.Fatalf("victim delivered %d/10", victims)
	}
	// Bound: a victim packet may wait out the packet occupying the
	// serializer plus a handful of queued transfers on both hops, but
	// never the 40-packet attacker backlog (~270 us through one port).
	wire := mkPkt(1, 2, VLRealtime, 1024).WireSize()
	bound := 8 * params.SerializationDelay(wire)
	if worst > bound {
		t.Fatalf("victim latency %v exceeds bound %v: flood starved the shared port", worst, bound)
	}
}

// The weighted arbiter must still deliver everything (work conservation).
func TestWeightedNoLoss(t *testing.T) {
	params := DefaultParams()
	params.Arbitration = ArbWeighted
	params.CreditsPerVL = 1
	s, a, b, _ := twoHCAs(t, params)
	n := 0
	b.OnDeliver = func(d *Delivery) { n++ }
	for i := 0; i < 30; i++ {
		vl := VLBestEffort
		class := ClassBestEffort
		if i%3 == 0 {
			vl, class = VLRealtime, ClassRealtime
		}
		a.Send(&Delivery{Pkt: mkPkt(1, 2, vl, 256), Class: class, VL: vl})
	}
	s.Run()
	if n != 30 {
		t.Fatalf("delivered %d/30", n)
	}
}
