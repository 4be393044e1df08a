package trace

import (
	"strings"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

// traceMesh wires a 2x2 mesh with a ring observer.
func traceMesh(t *testing.T, capacity int) (*sim.Simulator, *topology.Mesh, *Ring) {
	t.Helper()
	params := fabric.DefaultParams()
	ring := NewRing(capacity)
	params.Observer = ring
	s := sim.New()
	m := topology.NewMesh(s, params, 2, 2)
	for _, h := range m.HCAs {
		h.PKeyTable.Add(packet.PKey(0x8001))
	}
	return s, m, ring
}

func send(t *testing.T, m *topology.Mesh, src, dst int, pk packet.PKey, psn uint32) {
	t.Helper()
	p := &packet.Packet{
		LRH:     packet.LRH{SLID: topology.LIDOf(src), DLID: topology.LIDOf(dst)},
		BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1, PSN: psn},
		DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
		Payload: make([]byte, 64),
	}
	if err := icrc.Seal(p); err != nil {
		t.Fatal(err)
	}
	m.HCA(src).Send(&fabric.Delivery{Pkt: p, Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort})
}

// lifecycle extracts the events of one packet, identified by (SLID, PSN),
// in order — the packet's path through the fabric.
func lifecycle(r *Ring, slid packet.LID, psn uint32) []Event {
	var out []Event
	for _, ev := range r.Events() {
		if ev.SLID == slid && ev.PSN == psn {
			out = append(out, ev)
		}
	}
	return out
}

func TestLifecycleRecorded(t *testing.T) {
	s, m, ring := traceMesh(t, 128)
	send(t, m, 0, 3, 0x8001, 42)
	s.Run()

	life := lifecycle(ring, topology.LIDOf(0), 42)
	if len(life) < 4 {
		t.Fatalf("lifecycle too short: %v", life)
	}
	if life[0].Kind != fabric.ObsEnqueue {
		t.Fatalf("first event %v, want enqueue", life[0].Kind)
	}
	last := life[len(life)-1]
	if last.Kind != fabric.ObsDeliver {
		t.Fatalf("last event %v, want deliver", last.Kind)
	}
	// 0 -> 3 on a 2x2 mesh crosses 3 switches: two forwards en route
	// plus the final one into the destination HCA.
	forwards := 0
	for _, ev := range life {
		if ev.Kind == fabric.ObsForward {
			forwards++
		}
	}
	if forwards != 3 {
		t.Fatalf("forwards = %d, want 3: %v", forwards, life)
	}
	// Timestamps are nondecreasing.
	for i := 1; i < len(life); i++ {
		if life[i].At < life[i-1].At {
			t.Fatal("lifecycle timestamps go backwards")
		}
	}
}

func TestDropsTraced(t *testing.T) {
	s, m, ring := traceMesh(t, 128)
	send(t, m, 0, 1, 0x4444, 7) // invalid P_Key: rejected at the HCA
	s.Run()
	counts := ring.CountByKind()
	if counts[fabric.ObsPKeyReject] != 1 {
		t.Fatalf("pkey rejects = %d: %v", counts[fabric.ObsPKeyReject], counts)
	}
	if counts[fabric.ObsDeliver] != 0 {
		t.Fatal("rejected packet also delivered")
	}
}

func TestRingOverwrite(t *testing.T) {
	s, m, ring := traceMesh(t, 8)
	for i := 0; i < 10; i++ {
		send(t, m, 0, 1, 0x8001, uint32(i))
	}
	s.Run()
	if n := len(ring.Events()); n != 8 {
		t.Fatalf("%d events retained, want capacity 8", n)
	}
	if ring.Total() <= 8 {
		t.Fatalf("Total = %d, want > capacity", ring.Total())
	}
	evs := ring.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("ring events out of order after wraparound")
		}
	}
}

func TestFilter(t *testing.T) {
	s, m, ring := traceMesh(t, 128)
	ring.Filter = func(e Event) bool { return e.Kind == fabric.ObsDeliver }
	send(t, m, 0, 1, 0x8001, 1)
	send(t, m, 0, 2, 0x8001, 2)
	s.Run()
	if n := len(ring.Events()); n != 2 {
		t.Fatalf("filtered ring holds %d, want 2 delivers", n)
	}
	for _, ev := range ring.Events() {
		if ev.Kind != fabric.ObsDeliver {
			t.Fatalf("filter leaked %v", ev.Kind)
		}
	}
}

func TestEventText(t *testing.T) {
	s, m, ring := traceMesh(t, 64)
	send(t, m, 0, 3, 0x8001, 99)
	s.Run()
	var b strings.Builder
	for _, ev := range ring.Events() {
		b.WriteString(ev.String() + "\n")
	}
	out := b.String()
	if !strings.Contains(out, "deliver") || !strings.Contains(out, "psn=99") {
		t.Fatalf("text dump missing fields:\n%s", out)
	}
}

func TestNewRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRing(0)
}
