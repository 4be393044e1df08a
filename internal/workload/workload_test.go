package workload

import (
	"math"
	"math/rand"
	"testing"

	"ibasec/internal/fabric"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

func testMesh(t *testing.T) (*sim.Simulator, *topology.Mesh) {
	t.Helper()
	s := sim.New()
	m := topology.NewMesh(s, fabric.DefaultParams(), 2, 2)
	for _, h := range m.HCAs {
		h.PKeyTable.Add(packet.PKey(0x8001))
	}
	return s, m
}

func TestRealtimeCBRTiming(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(1))
	var times []sim.Time
	// 1 Mb/s with 125-byte messages: exactly one per millisecond.
	g := Realtime(s, rng, 1e6, 125, []int{1}, nil, func(dst, size int) {
		times = append(times, s.Now())
	})
	s.RunUntil(10 * sim.Millisecond)
	g.Stop()
	if len(times) != 10 {
		t.Fatalf("sent %d messages in 10ms at 1/ms", len(times))
	}
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d != sim.Millisecond {
			t.Fatalf("interval %v != 1ms", d)
		}
	}
	if g.Sent != 10 {
		t.Fatalf("Sent = %d", g.Sent)
	}
}

func TestRealtimeAdmissionControl(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(2))
	allow := false
	sent := 0
	g := Realtime(s, rng, 1e6, 125, []int{1}, func() bool { return allow }, func(dst, size int) { sent++ })
	s.RunUntil(5 * sim.Millisecond)
	if sent != 0 {
		t.Fatal("sent despite admission denial")
	}
	if g.Withheld != 5 {
		t.Fatalf("Withheld = %d", g.Withheld)
	}
	allow = true
	s.RunUntil(10 * sim.Millisecond)
	g.Stop()
	if sent != 5 {
		t.Fatalf("sent = %d after admission opened", sent)
	}
}

func TestBestEffortPoissonRate(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(3))
	n := 0
	g := BestEffort(s, rng, 100e6, 1024, []int{1, 2, 3}, func(dst, size int) { n++ })
	horizon := 50 * sim.Millisecond
	s.RunUntil(horizon)
	g.Stop()
	s.Run()
	want := PoissonMeanCheck(100e6, 1024, horizon) // ~610
	if math.Abs(float64(n)-want) > want*0.15 {
		t.Fatalf("Poisson source sent %d, want ~%.0f +/-15%%", n, want)
	}
}

func TestBestEffortStops(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(4))
	n := 0
	g := BestEffort(s, rng, 100e6, 1024, []int{1}, func(dst, size int) { n++ })
	s.RunUntil(10 * sim.Millisecond)
	g.Stop()
	before := n
	s.Run() // drain; no new arrivals may fire
	if n != before {
		t.Fatalf("source kept sending after Stop: %d -> %d", before, n)
	}
}

func TestRawUDSenderDelivers(t *testing.T) {
	s, m := testMesh(t)
	// The delivery belongs to the fabric again once OnDeliver returns:
	// copy out what the test looks at.
	var got struct {
		n, payload int
		attack     bool
		psn        uint32
	}
	m.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		got.n++
		got.payload, got.attack, got.psn = len(d.Pkt.Payload), d.Attack, d.Pkt.BTH.PSN
	}
	r := &RawUDSender{
		HCA:   m.HCA(0),
		Class: fabric.ClassBestEffort,
		PKey:  packet.PKey(0x8001),
		LIDOf: topology.LIDOf,
	}
	r.Send(3, 512)
	s.Run()
	if got.n != 1 {
		t.Fatal("not delivered")
	}
	if got.payload != 512 {
		t.Fatalf("payload %d", got.payload)
	}
	if got.attack {
		t.Fatal("legit packet marked attack")
	}
	// PSNs advance.
	r.Send(3, 16)
	s.Run()
	if got.psn != 1 {
		t.Fatalf("PSN = %d", got.psn)
	}
}

// A raw datagram allocates nothing once the fabric's free list holds a
// block with a large enough image (one warm-up send): the image is its
// all-zero payload, sealed in place, and must still be the packet's
// payload window at delivery — also when it is a recycled one.
func TestRawUDSenderAllocations(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	s, m := testMesh(t)
	delivered, inPlace := 0, 0
	m.HCA(3).OnDeliver = func(d *fabric.Delivery) {
		delivered++
		p := d.Pkt
		if wire := p.Wire(); len(p.Payload) == 1024 && &wire[p.HeaderSize()] == &p.Payload[0] {
			inPlace++
		}
	}
	r := &RawUDSender{HCA: m.HCA(0), Class: fabric.ClassBestEffort, PKey: packet.PKey(0x8001), LIDOf: topology.LIDOf}
	r.Send(3, 1024)
	s.Run()
	if delivered != 1 {
		t.Fatal("not delivered")
	}
	if allocs := testing.AllocsPerRun(200, func() { r.Send(3, 1024); s.Run() }); allocs != 0 {
		t.Fatalf("Send, delivered, allocated %.1f times per message, want 0", allocs)
	}
	if delivered != 202 || inPlace != delivered {
		t.Fatalf("%d delivered, %d with the sealed image still the payload's, want 202 of each", delivered, inPlace)
	}
}

func TestAttackerFullSpeed(t *testing.T) {
	s, m := testMesh(t)
	rng := rand.New(rand.NewSource(5))
	sender := &RawUDSender{HCA: m.HCA(0), Class: fabric.ClassBestEffort, LIDOf: topology.LIDOf}
	a := StartAttacker(s, rng, sender, []int{1, 2, 3}, 1024, 1.0, 0)
	s.RunUntil(2 * sim.Millisecond)
	a.Stop()
	s.Run()
	// Line rate at 2.5 Gb/s with ~1052-byte packets: ~3.37us/packet;
	// 2ms / 3.37us ~ 594 send events.
	sent := m.HCA(0).Counters.Value(fabric.HCASent)
	if sent < 400 || sent > 700 {
		t.Fatalf("attacker sent %d packets in 2ms, want ~594", sent)
	}
	if !sender.Attack {
		t.Fatal("attacker's sender not marked")
	}
}

func TestAttackerDutyCycle(t *testing.T) {
	s, m := testMesh(t)
	rng := rand.New(rand.NewSource(6))
	sender := &RawUDSender{HCA: m.HCA(0), Class: fabric.ClassBestEffort, LIDOf: topology.LIDOf}
	// 10% duty over 1ms cycles for 10ms: ~10x less than full speed.
	a := StartAttacker(s, rng, sender, []int{1}, 1024, 0.10, sim.Millisecond)
	s.RunUntil(10 * sim.Millisecond)
	a.Stop()
	s.Run()
	sent := m.HCA(0).Counters.Value(fabric.HCASent)
	full := uint64(10 * 297) // ~297 packets/ms at line rate
	if sent < full/20 || sent > full/5 {
		t.Fatalf("duty-cycled attacker sent %d, want ~%d", sent, full/10)
	}
	if a.Bursts < 9 || a.Bursts > 11 {
		t.Fatalf("bursts = %d, want ~10", a.Bursts)
	}
}

func TestAttackerRandomizesPKeyAndDest(t *testing.T) {
	s, m := testMesh(t)
	rng := rand.New(rand.NewSource(7))
	pkeys := map[packet.PKey]bool{}
	dests := map[packet.LID]bool{}
	for i := 1; i < 4; i++ {
		m.HCA(i).OnPKeyViolation = func(_ int, d *fabric.Delivery) {
			pkeys[d.Pkt.BTH.PKey] = true
			dests[d.Pkt.LRH.DLID] = true
		}
	}
	sender := &RawUDSender{HCA: m.HCA(0), Class: fabric.ClassBestEffort, LIDOf: topology.LIDOf}
	a := StartAttacker(s, rng, sender, []int{1, 2, 3}, 64, 1.0, 0)
	s.RunUntil(sim.Millisecond)
	a.Stop()
	s.Run()
	if len(pkeys) < 10 {
		t.Fatalf("attacker used only %d distinct P_Keys", len(pkeys))
	}
	if len(dests) != 3 {
		t.Fatalf("attacker hit %d destinations, want 3", len(dests))
	}
}

func TestGeneratorStopIdempotent(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(8))
	g := Realtime(s, rng, 1e6, 125, []int{1}, nil, func(int, int) {})
	g.Stop()
	g.Stop()
	s.Run() // must drain with no periodic events left
}

func TestBadConfigPanics(t *testing.T) {
	s, _ := testMesh(t)
	rng := rand.New(rand.NewSource(9))
	for _, fn := range []func(){
		func() { Realtime(s, rng, 0, 125, []int{1}, nil, func(int, int) {}) },
		func() { Realtime(s, rng, 1e6, 125, nil, nil, func(int, int) {}) },
		func() { BestEffort(s, rng, -1, 125, []int{1}, func(int, int) {}) },
		func() {
			sender := &RawUDSender{HCA: nil}
			StartAttacker(s, rng, sender, []int{1}, 64, 0, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
