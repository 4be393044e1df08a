package fabric

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// chain wires a line of nsw switches with one HCA each (LID i+1 on switch
// i, port 0; east on port 1, west on port 2), routes every LID, and puts
// every HCA in partition goodPKey.
func chain(s *sim.Simulator, params *Params, nsw int) ([]*Switch, []*HCA) {
	sws := make([]*Switch, nsw)
	hcas := make([]*HCA, nsw)
	for i := 0; i < nsw; i++ {
		sws[i] = NewSwitch(s, params, "sw", 5)
		hcas[i] = NewHCA(s, params, "hca", packet.LID(i+1))
		Connect(s, params, hcas[i], 0, sws[i], 0)
		sws[i].MarkIngress(0)
		hcas[i].PKeyTable.Add(goodPKey)
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
	return sws, hcas
}

const goodPKey = packet.PKey(0x8001)

// sendUD injects one sealed datagram from h in a message block drawn from
// the fabric's free list, the way every sender in the repository does.
func sendUD(t *testing.T, h *HCA, dlid packet.LID, pk packet.PKey, class Class, size int, psn uint32) {
	t.Helper()
	d := h.Params().NewMessage(class,
		packet.LRH{SLID: h.LID(), DLID: dlid},
		packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 1, PSN: psn}, size)
	*d.Pkt.DETH = packet.DETH{QKey: 1, SrcQP: 1}
	if err := icrc.Seal(d.Pkt); err != nil {
		t.Fatal(err)
	}
	h.Send(d)
}

// inFlight is the pool's own count of the messages queued or on the wire:
// the blocks it has made that are on neither of its free stacks.
func (p *Params) inFlight() int {
	if p.pool == nil {
		return 0
	}
	return p.pool.blocks - p.pool.idle()
}

// terminals tallies, by kind, the messages that have reached a terminal:
// every counter a release point in this package increments, plus the MADs
// the test's agent consumed.
type terminals map[string]uint64

func settled(hcas []*HCA, sws []*Switch, consumed uint64) terminals {
	tm := terminals{"mad consumed": consumed}
	for _, h := range hcas {
		tm["delivered"] += h.Counters.Value(HCADelivered)
		tm["pkey reject"] += h.PKeyViolations()
		tm["hca vcrc"] += h.Counters.Value(HCAVCRCDrops)
		tm["hca icrc"] += h.Counters.Value(HCAICRCDrops)
		tm["cnp consumed"] += h.Counters.Value(HCACNPReceived)
		tm["link blackhole"] += h.Blackholed()
		tm["hoq"] += h.HOQDropped()
	}
	for _, sw := range sws {
		tm["filtered"] += sw.Counters.Value(SwFiltered)
		tm["unroutable"] += sw.Counters.Value(SwUnroutable)
		tm["dead port"] += sw.Counters.Value(SwDeadPort)
		tm["switch vcrc"] += sw.Counters.Value(SwVCRCDrops)
		tm["mad tap"] += sw.Counters.Value(SwMADDropped)
		for p := range sw.ports {
			tm["link blackhole"] += sw.PortBlackholed(p)
		}
		tm["hoq"] += sw.HOQDropped()
	}
	return tm
}

func (tm terminals) total() (n uint64) {
	for _, v := range tm {
		n += v
	}
	return n
}

func sentBy(hcas []*HCA) (n uint64) {
	for _, h := range hcas {
		n += h.Counters.Value(HCASent)
	}
	return n
}

// psnFilter drops every eleventh datagram at its ingress switch.
type psnFilter struct{}

func (psnFilter) Inspect(_ *Switch, _ int, ingress bool, d *Delivery) (bool, sim.Time) {
	return ingress && d.Pkt.BTH.PSN%11 == 3, sim.Nanosecond
}

// eatingAgent is a switch management agent that consumes the MADs whose
// payload starts with 0xEA and leaves every other one to LID routing.
type eatingAgent struct{ eaten uint64 }

func (a *eatingAgent) HandleMAD(_ *Switch, _ int, d *Delivery) bool {
	if len(d.Pkt.Payload) == 0 || d.Pkt.Payload[0] != 0xEA {
		return false
	}
	a.eaten++
	d.ReturnCredit()
	return true
}

// drainInStrides runs the simulation to quiescence a few microseconds at
// a time, checking the pool's conservation law at every stop: the message
// blocks out of the free list are exactly the messages still queued or on
// the wire — sent, and not yet at any terminal.
func drainInStrides(t *testing.T, trial int, s *sim.Simulator, params *Params, hcas []*HCA, sws []*Switch, agent *eatingAgent) terminals {
	t.Helper()
	for {
		tm := settled(hcas, sws, agent.eaten)
		if held, want := params.inFlight(), int(sentBy(hcas)-tm.total()); held != want {
			t.Fatalf("trial %d at %v: %d message blocks out of the free list, %d messages in flight (%v)",
				trial, s.Now(), held, want, tm)
		}
		if s.Pending() == 0 {
			s.Run() // land the credit returns still on the wire
			return tm
		}
		s.RunUntil(s.Now() + 3*sim.Microsecond)
	}
}

// Conservation property: across random traffic patterns, every injected
// packet is accounted for exactly once — delivered, P_Key-rejected,
// filtered, unroutable, sent to a dead port, CRC-dropped at a switch or
// an HCA, consumed as a CNP, aged out, or, for a MAD, dropped by the fault
// tap or consumed by an agent — and its message block is released exactly
// once, at that terminal: at every stride the blocks out of the free list
// are the messages in flight, and when the network drains, none. This is
// the lossless-fabric invariant the paper's queuing-time argument rests
// on, stated on the pool.
func TestPropertyPacketConservation(t *testing.T) {
	seen := terminals{}
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		params := DefaultParams()
		params.CreditsPerVL = 1 + rng.Intn(4)
		if trial%3 == 0 {
			params.Arbitration = ArbWeighted
			params.HighPriLimit = 1 + rng.Intn(4)
		}
		switch trial % 4 {
		case 1:
			params.BitErrorRate = 2e-5
			params.RNG = rand.New(rand.NewSource(int64(trial)))
		case 2:
			params.Congestion = CCParams{MarkingThreshold: 2, CCTSize: 8, CCTStep: sim.Microsecond, CCTDecay: 20 * sim.Microsecond}
		case 3:
			params.HOQLife = 4 * sim.Microsecond
		}
		s := sim.New()

		// Random small topology: a chain of 2-4 switches, one HCA each.
		nsw := 2 + rng.Intn(3)
		sws, hcas := chain(s, params, nsw)
		agent := &eatingAgent{}
		for i, sw := range sws {
			sw.SetRoute(packet.LID(201), 3) // a route out of a port nothing is wired to
			sw.SetFilter(psnFilter{})
			sw.SetMADHandler(agent)
			tapped := 0
			sw.SetMADTap(func(*Switch, *Delivery) (bool, sim.Time) {
				tapped++
				return tapped%5 == 0, 0
			})
			if params.Congestion.Enabled() {
				sw.SetCongestionControl(params.Congestion.MarkingThreshold)
				hcas[i].SetCongestionControl(params.Congestion)
			}
		}

		for i := 0; i < 120; i++ {
			src := rng.Intn(nsw)
			dst := rng.Intn(nsw)
			if dst == src {
				continue
			}
			dlid := packet.LID(dst + 1)
			switch rng.Intn(20) {
			case 0:
				dlid = packet.LID(200) // unroutable
			case 1:
				dlid = packet.LID(201) // dead port
			}
			if rng.Intn(6) == 0 {
				pl := []byte{0x01, byte(i)}
				if rng.Intn(3) == 0 {
					pl[0] = 0xEA
				}
				hcas[src].Send(params.NewMAD(hcas[src].LID(), dlid, pl))
				continue
			}
			pk := goodPKey
			if rng.Intn(5) == 0 {
				pk = packet.PKey(rng.Intn(1 << 15)) // likely invalid
			}
			class := ClassBestEffort
			if rng.Intn(3) == 0 {
				class = ClassRealtime
			}
			sendUD(t, hcas[src], dlid, pk, class, rng.Intn(1024), uint32(i))
		}
		tm := drainInStrides(t, trial, s, params, hcas, sws, agent)

		if sent := sentBy(hcas); tm.total() != sent {
			t.Fatalf("trial %d: sent %d but accounted %d (%v)", trial, sent, tm.total(), tm)
		}
		// Drained network: every send queue empty.
		for _, h := range hcas {
			for vl := uint8(0); vl < NumVLs; vl++ {
				if h.SendQueueLen(vl) != 0 {
					t.Fatalf("trial %d: packets stuck in a drained network", trial)
				}
			}
		}
		for k, v := range tm {
			seen[k] += v
		}
	}
	for _, kind := range []string{"delivered", "pkey reject", "filtered", "unroutable", "dead port",
		"switch vcrc", "hca vcrc", "cnp consumed", "hoq", "mad tap", "mad consumed"} {
		if seen[kind] == 0 {
			t.Errorf("no trial drove a message to the %q terminal", kind)
		}
	}
}

// An end-to-end ICRC failure needs a packet whose last link left the VCRC
// intact, which random bit errors essentially never produce; strike one
// by hand. Its block is released like any other.
func TestICRCDropReleasesMessage(t *testing.T) {
	params := DefaultParams()
	s := sim.New()
	_, hcas := chain(s, params, 2)
	hcas[1].OnDeliver = func(*Delivery) { t.Fatal("delivered a packet whose ICRC is wrong") }
	d := params.NewMessage(ClassBestEffort,
		packet.LRH{SLID: 1, DLID: 2}, packet.BTH{OpCode: packet.UDSendOnly, PKey: goodPKey, DestQP: 1}, 64)
	*d.Pkt.DETH = packet.DETH{QKey: 1, SrcQP: 1}
	d.Pkt.Payload[5] = 0x5A
	if err := icrc.Seal(d.Pkt); err != nil {
		t.Fatal(err)
	}
	d.Pkt.Wire()            // settle the CRCs Seal left owed, so the ICRC is written …
	d.Pkt.Payload[5] = 0xA5 // … before a flip neither CRC has seen …
	icrc.PatchVCRC(d.Pkt)   // … which the last link's VCRC now vouches for
	d.Tainted = true
	hcas[0].Send(d)
	s.Run()
	if got := hcas[1].Counters.Value(HCAICRCDrops); got != 1 {
		t.Fatalf("icrc_drops = %d, want 1", got)
	}
	if held := params.inFlight(); held != 0 {
		t.Fatalf("%d message blocks still out after the drop", held)
	}
}

// A second release of the same block is a bug in this package; it panics
// naming both terminals.
func TestReleaseTwicePanics(t *testing.T) {
	params := DefaultParams()
	d := params.NewMAD(1, 2, []byte{1})
	params.release(d, ObsFiltered)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "released twice") || !strings.Contains(msg, "filtered") || !strings.Contains(msg, "deliver") {
			t.Fatalf("second release: %s", msg)
		}
	}()
	params.release(d, ObsDeliver)
}

// A message drawn and discarded unsent (transport's failed seals) is not
// in flight, and the next message is built in its block.
func TestDiscardReturnsBlock(t *testing.T) {
	params := DefaultParams()
	draw := func() *Delivery {
		return params.NewMessage(ClassBestEffort, packet.LRH{SLID: 1, DLID: 2}, packet.BTH{OpCode: packet.UDSendOnly}, 0)
	}
	d := draw()
	params.Discard(d)
	if held := params.inFlight(); held != 0 {
		t.Fatalf("%d message blocks out after the discard", held)
	}
	if !PoolPoison && draw() != d {
		t.Fatal("discarded block was not the next one drawn")
	}
}

// Conservation under injected failure: with a mid-chain link taken down
// and brought back up while traffic flows, every packet is still
// accounted for exactly once (the blackhole counters absorb what the dead
// link destroyed, on the wire, in queue and at enqueue), every message
// block is released exactly once, no credit is leaked and none is
// double-returned: after the drain every channel is back to the full
// credit complement.
func TestPropertyConservationAcrossLinkDownUp(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 101))
		params := DefaultParams()
		params.CreditsPerVL = 1 + rng.Intn(4)
		s := sim.New()

		const nsw = 3
		sws, hcas := chain(s, params, nsw)
		agent := &eatingAgent{}

		psn := uint32(0)
		burst := func(n int) {
			for i := 0; i < n; i++ {
				src := rng.Intn(nsw)
				dst := rng.Intn(nsw)
				if dst == src {
					continue
				}
				sendUD(t, hcas[src], packet.LID(dst+1), goodPKey, ClassBestEffort, rng.Intn(1024), psn)
				psn++
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
		tm := drainInStrides(t, trial, s, params, hcas, sws, agent)

		if tm["link blackhole"] == 0 {
			t.Fatalf("trial %d: outage destroyed nothing; schedule too lenient", trial)
		}
		if sent := sentBy(hcas); tm.total() != sent || tm.total() != tm["delivered"]+tm["link blackhole"] {
			t.Fatalf("trial %d: sent %d but accounted %d (%v)", trial, sent, tm.total(), tm)
		}
		// No credit leaked, none double-returned: every channel restored
		// to the exact full complement, with nothing left queued.
		check := func(name string, p *Port) {
			if !p.Connected() {
				return
			}
			p.out.settle() // land the returns whose slots have passed
			for vl := 0; vl < NumVLs; vl++ {
				if n := p.out.qlen(uint8(vl)); n != 0 {
					t.Fatalf("trial %d: %s VL %d holds %d packets after drain", trial, name, vl, n)
				}
				if c := p.out.credits()[vl]; int(c) != params.CreditsPerVL {
					t.Fatalf("trial %d: %s VL %d has %d credits, want %d",
						trial, name, vl, c, params.CreditsPerVL)
				}
			}
			if p.out.busy {
				t.Fatalf("trial %d: %s serializer stuck busy", trial, name)
			}
		}
		for i, sw := range sws {
			for pi := range sw.ports {
				check(fmt.Sprintf("sw%d port %d", i, pi), &sw.ports[pi])
			}
		}
		for i, h := range hcas {
			check(fmt.Sprintf("hca%d", i), &h.port)
		}
	}
}
