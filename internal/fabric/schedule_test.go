package fabric

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// linkObs is one packet event of a linkRun's observation stream.
type linkObs struct {
	at    sim.Time
	kind  ObsKind
	where string
	vl    uint8
	psn   uint32
}

// linkObserver records a linkRun's stream. With flap set it now and then
// takes down, for a moment, the link a forwarded packet arrived over,
// timed so that the packet's credit return is often still on the wire.
type linkObserver struct {
	run  *linkRun
	s    *sim.Simulator
	rng  *rand.Rand
	flap bool
}

func (o *linkObserver) Observe(at sim.Time, kind ObsKind, where string, d *Delivery) {
	o.run.obs = append(o.run.obs, linkObs{at, kind, where, d.VL, d.Pkt.BTH.PSN})
	if c := d.credCh; o.flap && kind == ObsForward && c != nil && o.rng.Intn(6) == 0 {
		down := at + sim.Time(o.rng.Intn(40))*sim.Nanosecond
		o.s.ScheduleAt(down, func() { c.setDown(true) })
		o.s.ScheduleAt(down+sim.Time(o.rng.Intn(2000))*sim.Nanosecond, func() { c.setDown(false) })
	}
}

// linkRun is everything FuzzLinkSchedule compares between the lazy and
// the eager schedule: the per-packet stream, Switch.QueueDepth sampled
// inside events and between runs, and each channel's end state once the
// fabric has drained.
type linkRun struct {
	obs     []linkObs
	depth   []int
	credits [][NumVLs]int32
	busy    []bool
	stall   []sim.Time
	hoq     []uint64
	now     sim.Time
}

// linkScheduleRun builds a small random fabric from seed and knobs —
// knobs&3 is CreditsPerVL-1, then one bit each for weighted arbitration,
// a Head-of-Queue lifetime, bit errors, equal 64 B payloads, link
// outages, and a zero propagation delay — drives random
// traffic through it, from events and in bursts between RunUntil
// strides, and records a linkRun. eager schedules every ticket
// (outChannel.wakeAll).
func linkScheduleRun(t *testing.T, seed int64, knobs byte, eager bool) *linkRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	params := DefaultParams()
	params.CreditsPerVL = 1 + int(knobs&3)
	params.VLPriority[2] = 1 // lanes 1 and 2 high, 0 and 3 low
	if knobs&4 != 0 {
		params.Arbitration = ArbWeighted
		params.HighPriLimit = 1 + rng.Intn(3)
	}
	if knobs&8 != 0 {
		params.HOQLife = sim.Time(2+rng.Intn(30)) * sim.Microsecond
	}
	if knobs&16 != 0 {
		params.BitErrorRate = 1e-5 * float64(1+rng.Intn(8))
	}
	params.RNG = rand.New(rand.NewSource(seed ^ 0x5eed))
	if knobs&128 != 0 {
		params.PropDelay = 0
	}
	run := &linkRun{}
	s := sim.New()
	params.Observer = &linkObserver{run: run, s: s, rng: rng, flap: knobs&64 != 0}

	// A line of one to three switches, each with one or two HCAs (ports
	// 0 and 3); east on port 1, west on port 2.
	nsw := 1 + rng.Intn(3)
	var sws []*Switch
	var hcas []*HCA
	var home, hport []int // hcas[i] hangs off port hport[i] of sws[home[i]]
	for i := 0; i < nsw; i++ {
		sw := NewSwitch(s, params, fmt.Sprintf("sw%d", i), 5)
		sws = append(sws, sw)
		for _, port := range []int{0, 3}[:1+rng.Intn(2)] {
			h := NewHCA(s, params, fmt.Sprintf("hca%d", len(hcas)), packet.LID(len(hcas)+1))
			Connect(s, params, h, 0, sw, port)
			sw.MarkIngress(port)
			h.PKeyTable.Add(goodPKey)
			hcas = append(hcas, h)
			home, hport = append(home, i), append(hport, port)
		}
	}
	for i := 0; i+1 < nsw; i++ {
		Connect(s, params, sws[i], 1, sws[i+1], 2)
	}
	for i, sw := range sws {
		for dst, at := range home {
			port := 1
			switch {
			case at < i:
				port = 2
			case at == i:
				port = hport[dst]
			}
			sw.SetRoute(packet.LID(dst+1), port)
		}
	}

	var chans []*outChannel
	for _, sw := range sws {
		for i := range sw.ports {
			if p := &sw.ports[i]; p.Connected() {
				chans = append(chans, p.out)
			}
		}
	}
	for _, h := range hcas {
		chans = append(chans, h.port.out)
	}
	for _, c := range chans {
		c.wakeAll = eager
	}

	psn := uint32(0)
	send := func(h *HCA) {
		dst := packet.LID(1 + rng.Intn(len(hcas)))
		vl := uint8(rng.Intn(4))
		size := 64
		if knobs&32 == 0 {
			size = rng.Intn(1024)
		}
		d := params.NewMessage(ClassBestEffort, packet.LRH{SLID: h.LID(), DLID: dst},
			packet.BTH{OpCode: packet.UDSendOnly, PKey: goodPKey, DestQP: 1, PSN: psn}, size)
		psn++
		d.VL = vl
		*d.Pkt.DETH = packet.DETH{QKey: 1, SrcQP: 1}
		if err := icrc.Seal(d.Pkt); err != nil {
			t.Fatal(err)
		}
		h.Send(d)
	}
	sample := func() {
		for _, sw := range sws {
			for p := range sw.ports {
				run.depth = append(run.depth, sw.QueueDepth(p))
			}
		}
	}
	const horizon = 80 * sim.Microsecond
	randAt := func() sim.Time { return sim.Time(rng.Int63n(int64(horizon))) }
	for i := 0; i < 60; i++ {
		s.ScheduleAt(randAt(), func() { send(hcas[rng.Intn(len(hcas))]) })
	}
	for i := 0; i < 20; i++ {
		s.ScheduleAt(randAt(), sample)
	}
	if knobs&64 != 0 {
		for i := 0; i < 4; i++ {
			sw := sws[rng.Intn(nsw)]
			port := rng.Intn(4)
			down, up := randAt(), sim.Time(rng.Intn(10))*sim.Microsecond
			s.ScheduleAt(down, func() { sw.SetLinkState(port, false) })
			s.ScheduleAt(down+up, func() { sw.SetLinkState(port, true) })
		}
		h := hcas[rng.Intn(len(hcas))]
		down := randAt()
		s.ScheduleAt(down, func() { h.SetLinkState(false) })
		s.ScheduleAt(down+sim.Microsecond, func() { h.SetLinkState(true) })
	}
	for s.Now() < horizon {
		// A burst from one source backs its lanes up behind each other.
		h := hcas[rng.Intn(len(hcas))]
		for n := rng.Intn(8); n > 0; n-- {
			send(h)
		}
		sample()
		s.RunUntil(s.Now() + sim.Time(rng.Intn(5000))*sim.Nanosecond)
	}
	s.Run()
	sample()
	run.now = s.Now()

	for _, c := range chans {
		c.settle()
		run.credits = append(run.credits, c.credits())
		run.busy = append(run.busy, c.busy)
		run.stall = append(run.stall, c.stallTime(s.Now()))
		run.hoq = append(run.hoq, c.counts().hoqDropped)
	}
	return run
}

// FuzzLinkSchedule is the differential test of the lazy link schedule:
// a random fabric run with tickets scheduled only when a packet waits on
// them must be indistinguishable from the same fabric with every ticket
// scheduled as it is reserved — the eager schedule, where each serializer
// completion and credit return is an event. Same-instant ties are where
// a lazy schedule can go wrong, so equal 64 B packets and a zero
// propagation delay are among the knobs.
func FuzzLinkSchedule(f *testing.F) {
	for i, knobs := range []byte{0, 3, 4, 7, 8, 12, 16, 32, 35, 36, 39, 44, 64, 68, 72, 76, 96, 100, 128, 164, 228, 239, 255} {
		f.Add(int64(i+1), knobs)
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs byte) {
		lazy := linkScheduleRun(t, seed, knobs, false)
		eager := linkScheduleRun(t, seed, knobs, true)
		if len(eager.obs) == 0 {
			t.Fatal("no packet observed: the fabric carried nothing")
		}
		for i := range min(len(lazy.obs), len(eager.obs)) {
			if lazy.obs[i] != eager.obs[i] {
				t.Fatalf("observation %d: lazy %+v, eager %+v", i, lazy.obs[i], eager.obs[i])
			}
		}
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("lazy and eager schedules differ:\nlazy  %+v\neager %+v",
				summary(lazy), summary(eager))
		}
		// Both share the ticket bookkeeping, so hold it to conservation
		// too: drained, with every link back up, each lane has its full
		// complement and each serializer is idle.
		for i, c := range lazy.credits {
			for vl, n := range c {
				if int(n) != 1+int(knobs&3) || lazy.busy[i] {
					t.Fatalf("channel %d VL %d: %d credits, busy %v after the drain", i, vl, n, lazy.busy[i])
				}
			}
		}
	})
}

// eagerReference holds, for thirty FuzzLinkSchedule fabrics, the
// streamHash the eager channel produced — every serializer completion
// and credit return an event of its own, before tickets replaced them,
// with HCA.Send recomputing the VCRC of a packet it moves to another VL,
// as Packet.Restamp now has it owed.
// The fuzz target compares two schedules that share the ticket
// bookkeeping, so it cannot see a mistake there that moves both alike;
// these can.
var eagerReference = []struct {
	seed  int64
	knobs byte
	hash  string
}{
	{1, 0, "1b1fd316169d326d"},
	{1, 4, "323d76c199c71f55"},
	{1, 12, "31c02004c1a9e592"},
	{1, 36, "c71ab7ec0776e28b"},
	{1, 68, "66441128e835ef98"},
	{1, 76, "955e90fcd06dab50"},
	{1, 100, "5ca39e668d410671"},
	{1, 164, "3f1248d60bf9c810"},
	{1, 228, "56e5b472be953086"},
	{1, 255, "e222b8007fe05506"},
	{2, 0, "a2079d73cd5d90ee"},
	{2, 4, "b09668e0f02cc62c"},
	{2, 12, "b8204da01a251bdb"},
	{2, 36, "0fce6f3f1c263bc1"},
	{2, 68, "71940676a4f54999"},
	{2, 76, "f179e142266f15b5"},
	{2, 100, "25a98a2e8c7a263a"},
	{2, 164, "adcd7bd0c31667bd"},
	{2, 228, "48c05675d3dea698"},
	{2, 255, "8b1353c2d59e5637"},
	{3, 0, "a80dda782d0d300c"},
	{3, 4, "4de83c0db501438c"},
	{3, 12, "69e10df238ddb90d"},
	{3, 36, "974f2e341a02c2de"},
	{3, 68, "29bf81f1281cdea2"},
	{3, 76, "170aced6c6d46db6"},
	{3, 100, "6839d738b98edd32"},
	{3, 164, "aaf965240e575899"},
	{3, 228, "689dec481620a7f1"},
	{3, 255, "03a52753af40cdd8"},
}

func TestLinkScheduleMatchesEagerReference(t *testing.T) {
	for _, ref := range eagerReference {
		if got := linkScheduleRun(t, ref.seed, ref.knobs, false).streamHash(); got != ref.hash {
			t.Errorf("seed %d, knobs %d: stream %s, the eager channel's %s", ref.seed, ref.knobs, got, ref.hash)
		}
	}
}

// streamHash is the FNV-64a of what a run showed outside the channel:
// its packet stream, its QueueDepth samples and its final clock.
func (r *linkRun) streamHash() string {
	h := fnv.New64a()
	for _, o := range r.obs {
		fmt.Fprintf(h, "%d %d %s %d %d\n", o.at, o.kind, o.where, o.vl, o.psn)
	}
	fmt.Fprintln(h, r.depth, r.now)
	return fmt.Sprintf("%016x", h.Sum64())
}

// summary is a linkRun without its observation stream, for a failure
// message.
func summary(r *linkRun) string {
	return fmt.Sprintf("%d observations, depth %v, credits %v, busy %v, stall %v, hoq %v, now %v",
		len(r.obs), r.depth, r.credits, r.busy, r.stall, r.hoq, r.now)
}
