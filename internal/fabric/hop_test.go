package fabric_test

import (
	"testing"
	"time"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
	"ibasec/internal/topology"
)

const hopPKey = packet.PKey(0x8001)

// hopMesh is the paper's 4x4 testbed with every HCA in one partition and
// one pre-sealed size-byte UD packet per source, addressed several hops
// away. Sending the same sealed packet again and again exercises exactly
// the fabric's own per-hop work: nothing is marshalled or sealed.
type hopMesh struct {
	s    *sim.Simulator
	mesh *topology.Mesh
	pkts []*packet.Packet
}

func newHopMesh(tb testing.TB, params *fabric.Params, size int) *hopMesh {
	tb.Helper()
	s := sim.New()
	m := &hopMesh{s: s, mesh: topology.NewMesh(s, params, 4, 4)}
	n := m.mesh.NumNodes()
	for src := 0; src < n; src++ {
		if err := m.mesh.HCA(src).PKeyTable.Add(hopPKey); err != nil {
			tb.Fatal(err)
		}
		p := &packet.Packet{
			LRH:     packet.LRH{VL: fabric.VLBestEffort, SLID: topology.LIDOf(src), DLID: topology.LIDOf((src*7 + 3) % n)},
			BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: hopPKey, DestQP: 2},
			DETH:    &packet.DETH{QKey: 1, SrcQP: 2},
			Payload: make([]byte, size),
		}
		if err := icrc.Seal(p); err != nil {
			tb.Fatal(err)
		}
		m.pkts = append(m.pkts, p)
	}
	return m
}

func (m *hopMesh) delivery(src int) fabric.Delivery {
	return fabric.Delivery{Pkt: m.pkts[src], Class: fabric.ClassBestEffort, VL: fabric.VLBestEffort}
}

func (m *hopMesh) delivered() uint64 {
	var n uint64
	for _, h := range m.mesh.HCAs {
		n += h.Counters.Value(fabric.HCADelivered)
	}
	return n
}

// passFilter is a Filter that charges a lookup delay and drops nothing.
type passFilter struct{}

func (passFilter) Inspect(*fabric.Switch, int, bool, *fabric.Delivery) (bool, sim.Time) {
	return false, 5 * sim.Nanosecond
}

// send injects src's pre-sealed packet in a message block from the
// fabric's free list, as every sender in the repository does.
func (m *hopMesh) send(src int) {
	h := m.mesh.HCA(src)
	d := h.Params().NewMessage(fabric.ClassBestEffort, packet.LRH{}, packet.BTH{}, 0)
	d.Pkt = m.pkts[src]
	h.Send(d)
}

// TestHopPathAllocs holds the fabric's hop path to no allocation at all:
// a round of one packet from each of the 16 nodes — about five hops and
// twenty events each — draws its sixteen message blocks from the free
// list and returns them at delivery, with every per-hop option that
// schedules an event of its own switched on in turn.
func TestHopPathAllocs(t *testing.T) {
	if fabric.PoolPoison {
		t.Skip("the poison build never reuses a message block")
	}
	cases := []struct {
		name   string
		params func(*fabric.Params) // before the mesh is wired
		mesh   func(*hopMesh)       // after
	}{
		{name: "plain"},
		{name: "HOQLife", params: func(p *fabric.Params) { p.HOQLife = 50 * sim.Microsecond }},
		{name: "Filter", mesh: func(m *hopMesh) {
			for _, sw := range m.mesh.Switches {
				sw.SetFilter(passFilter{})
			}
		}},
		{name: "ExtraSendDelay", mesh: func(m *hopMesh) {
			for _, h := range m.mesh.HCAs {
				h.ExtraSendDelay = 4 * sim.Nanosecond
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := fabric.DefaultParams()
			if tc.params != nil {
				tc.params(params)
			}
			m := newHopMesh(t, params, 64)
			if tc.mesh != nil {
				tc.mesh(m)
			}
			n := m.mesh.NumNodes()
			round := func() {
				for src := 0; src < n; src++ {
					m.send(src)
				}
				m.s.Run()
			}
			for i := 0; i < 8; i++ {
				round() // grow the event slab, the VL rings and the free list to steady state
			}
			before := m.delivered()
			allocs := testing.AllocsPerRun(50, round)
			if got := m.delivered() - before; got != uint64(51*n) {
				t.Fatalf("delivered %d packets over 51 rounds of %d", got, n)
			}
			if allocs != 0 {
				t.Fatalf("a round of %d packets allocated %.0f times, want 0", n, allocs)
			}
		})
	}
}

// BenchmarkFabricHop measures one packet's whole trip through the fabric
// — HCA send queue, each switch's lookup, VL arbitration, credits and
// serializer, delivery — with everything above it taken out: the 64-byte
// packet is sealed once and the one Delivery is reset by value each op,
// so it reads 0 allocs/op; TestHopPathAllocs is what holds it there.
func BenchmarkFabricHop(b *testing.B) {
	m := newHopMesh(b, fabric.DefaultParams(), 64)
	n := m.mesh.NumNodes()
	var d fabric.Delivery
	send := func(i int) int {
		src := i % n
		d = m.delivery(src)
		m.mesh.HCA(src).Send(&d)
		m.s.Run()
		return d.Hops + 1 // switches forwarded through, plus the delivery
	}
	for i := 0; i < 4*n; i++ {
		send(i)
	}
	hops := 0
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		hops += send(i)
	}
	b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(hops), "ns/hop")
}
