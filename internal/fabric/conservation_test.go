package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Conservation property: across random traffic patterns, every injected
// packet is accounted for exactly once — delivered, P_Key-rejected,
// filtered, unroutable, or CRC-dropped — and when the network drains, no
// packet remains in flight. This is the lossless-fabric invariant the
// paper's queuing-time argument rests on.
func TestPropertyPacketConservation(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		params := DefaultParams()
		params.CreditsPerVL = 1 + rng.Intn(4)
		if trial%3 == 0 {
			params.Arbitration = ArbWeighted
			params.HighPriLimit = 1 + rng.Intn(4)
		}
		s := sim.New()

		// Random small topology: a chain of 2-4 switches, one HCA each.
		nsw := 2 + rng.Intn(3)
		sws := make([]*Switch, nsw)
		hcas := make([]*HCA, nsw)
		for i := 0; i < nsw; i++ {
			sws[i] = NewSwitch(s, params, "sw", 5)
			hcas[i] = NewHCA(s, params, "hca", packet.LID(i+1))
			Connect(s, params, hcas[i], 0, sws[i], 0)
			sws[i].MarkIngress(0)
		}
		for i := 0; i+1 < nsw; i++ {
			Connect(s, params, sws[i], 1, sws[i+1], 2)
		}
		for i := 0; i < nsw; i++ {
			for dst := 0; dst < nsw; dst++ {
				port := 0
				if dst > i {
					port = 1
				} else if dst < i {
					port = 2
				}
				sws[i].SetRoute(packet.LID(dst+1), port)
			}
		}
		good := packet.PKey(0x8001)
		for _, h := range hcas {
			h.PKeyTable.Add(good)
		}

		delivered := 0
		for _, h := range hcas {
			h.OnDeliver = func(d *Delivery) { delivered++ }
		}

		sent := 0
		for i := 0; i < 100; i++ {
			src := rng.Intn(nsw)
			dst := rng.Intn(nsw)
			if dst == src {
				continue
			}
			pk := good
			if rng.Intn(5) == 0 {
				pk = packet.PKey(rng.Intn(1 << 15)) // likely invalid
			}
			dlid := packet.LID(dst + 1)
			if rng.Intn(20) == 0 {
				dlid = packet.LID(200) // unroutable
			}
			vl := VLBestEffort
			class := ClassBestEffort
			if rng.Intn(3) == 0 {
				vl, class = VLRealtime, ClassRealtime
			}
			p := &packet.Packet{
				LRH:     packet.LRH{SLID: packet.LID(src + 1), DLID: dlid},
				BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1, PSN: uint32(i)},
				DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
				Payload: make([]byte, rng.Intn(1024)),
			}
			if err := icrc.Seal(p); err != nil {
				t.Fatal(err)
			}
			hcas[src].Send(&Delivery{Pkt: p, Class: class, VL: vl})
			sent++
		}
		s.Run()

		var rejected, unroutable, dead uint64
		for _, h := range hcas {
			rejected += h.PKeyViolations()
		}
		for _, sw := range sws {
			unroutable += sw.Counters.Get("unroutable")
			dead += sw.Counters.Get("dead_port")
		}
		total := delivered + int(rejected) + int(unroutable) + int(dead)
		if total != sent {
			t.Fatalf("trial %d: sent %d but accounted %d (delivered %d, rejected %d, unroutable %d, dead %d)",
				trial, sent, total, delivered, rejected, unroutable, dead)
		}
		// Drained network: every send queue empty.
		for _, h := range hcas {
			for vl := uint8(0); vl < NumVLs; vl++ {
				if h.SendQueueLen(vl) != 0 {
					t.Fatalf("trial %d: packets stuck in a drained network", trial)
				}
			}
		}
	}
}

// Conservation under injected link failure: with a mid-chain link taken
// down and brought back up while traffic flows, every packet is still
// accounted for exactly once — the blackhole counter absorbs what the
// dead link destroyed — no credit is leaked and none is double-returned:
// after the drain every channel is back to the full credit complement.
func TestPropertyConservationAcrossLinkDownUp(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		params := DefaultParams()
		params.CreditsPerVL = 1 + rng.Intn(4)
		s := sim.New()

		const nsw = 3
		sws := make([]*Switch, nsw)
		hcas := make([]*HCA, nsw)
		for i := 0; i < nsw; i++ {
			sws[i] = NewSwitch(s, params, "sw", 5)
			hcas[i] = NewHCA(s, params, "hca", packet.LID(i+1))
			Connect(s, params, hcas[i], 0, sws[i], 0)
			sws[i].MarkIngress(0)
		}
		for i := 0; i+1 < nsw; i++ {
			Connect(s, params, sws[i], 1, sws[i+1], 2)
		}
		for i := 0; i < nsw; i++ {
			for dst := 0; dst < nsw; dst++ {
				port := 0
				if dst > i {
					port = 1
				} else if dst < i {
					port = 2
				}
				sws[i].SetRoute(packet.LID(dst+1), port)
			}
		}
		good := packet.PKey(0x8001)
		for _, h := range hcas {
			h.PKeyTable.Add(good)
		}

		delivered := 0
		for _, h := range hcas {
			h.OnDeliver = func(d *Delivery) { delivered++ }
		}

		sent := 0
		burst := func(n int) {
			for i := 0; i < n; i++ {
				src := rng.Intn(nsw)
				dst := rng.Intn(nsw)
				if dst == src {
					continue
				}
				p := &packet.Packet{
					LRH:     packet.LRH{SLID: packet.LID(src + 1), DLID: packet.LID(dst + 1)},
					BTH:     packet.BTH{OpCode: packet.UDSendOnly, PKey: good, DestQP: 1, PSN: uint32(sent)},
					DETH:    &packet.DETH{QKey: 1, SrcQP: 1},
					Payload: make([]byte, rng.Intn(1024)),
				}
				if err := icrc.Seal(p); err != nil {
					t.Fatal(err)
				}
				hcas[src].Send(&Delivery{Pkt: p, Class: ClassBestEffort, VL: VLBestEffort})
				sent++
			}
		}

		// The link that dies: between switches cut and cut+1.
		cut := rng.Intn(nsw - 1)
		setLink := func(up bool) {
			sws[cut].SetLinkState(1, up)
			sws[cut+1].SetLinkState(2, up)
		}

		// Traffic before, during and after the outage. The down
		// transition lands while first-wave packets are still queued, so
		// both in-queue destruction and reject-at-enqueue are exercised.
		burst(40)
		s.ScheduleAt(20*sim.Microsecond, func() { setLink(false) })
		s.ScheduleAt(60*sim.Microsecond, func() { burst(40) })
		s.ScheduleAt(120*sim.Microsecond, func() { setLink(true) })
		s.ScheduleAt(150*sim.Microsecond, func() { burst(40) })
		s.Run()

		var blackholed uint64
		for _, sw := range sws {
			blackholed += sw.Blackholed()
		}
		for _, h := range hcas {
			blackholed += h.Blackholed()
		}
		if blackholed == 0 {
			t.Fatalf("trial %d: outage destroyed nothing; schedule too lenient", trial)
		}
		total := delivered + int(blackholed)
		if total != sent {
			t.Fatalf("trial %d: sent %d but accounted %d (delivered %d, blackholed %d)",
				trial, sent, total, delivered, blackholed)
		}

		// No credit leaked, none double-returned: every channel restored
		// to the exact full complement, with nothing left queued.
		check := func(name string, p *Port) {
			if !p.Connected() {
				return
			}
			for vl := 0; vl < NumVLs; vl++ {
				if n := p.out.queues[vl].len(); n != 0 {
					t.Fatalf("trial %d: %s VL %d holds %d packets after drain", trial, name, vl, n)
				}
				if c := p.out.credits[vl]; c != params.CreditsPerVL {
					t.Fatalf("trial %d: %s VL %d has %d credits, want %d",
						trial, name, vl, c, params.CreditsPerVL)
				}
			}
			if p.out.busy {
				t.Fatalf("trial %d: %s serializer stuck busy", trial, name)
			}
		}
		for i, sw := range sws {
			for pi, port := range sw.ports {
				check(fmt.Sprintf("sw%d port %d", i, pi), port)
			}
		}
		for i, h := range hcas {
			check(fmt.Sprintf("hca%d", i), h.port)
		}
	}
}
