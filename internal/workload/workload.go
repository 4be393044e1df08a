// Package workload generates the paper's three traffic types (section
// 3.1): realtime (constant-rate streams that withhold packets when the
// network cannot sustain their bandwidth), best-effort (Poisson arrivals
// at a configured injection rate, "similar to scientific workloads"), and
// DoS attackers ("chooses destinations randomly and generates traffic at
// full speed" with random partition keys).
package workload

import (
	"math/rand"

	"ibasec/internal/fabric"
	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Sender emits one message of size bytes to the destination node index.
// Implementations either inject raw packets through an HCA (the DoS
// experiments) or go through the transport layer (the authentication
// experiments).
type Sender interface {
	Send(dst, size int)
}

// SendFunc adapts a function to Sender.
type SendFunc func(dst, size int)

// Send calls f.
func (f SendFunc) Send(dst, size int) { f(dst, size) }

// Admitter gates a realtime source: Admit reports whether the network
// can take the next packet now.
type Admitter interface {
	Admit() bool
}

// Generator is one traffic source. Its events are named handler types
// over it (see sim.Handler), so a running source allocates nothing, and
// the zero value is an idle source that StartRealtime or StartBestEffort
// starts in place: a run keeps all its sources in one slice.
type Generator struct {
	s       *sim.Simulator
	rng     *rand.Rand
	send    Sender
	admit   Admitter // realtime only; nil admits every packet
	targets []int
	size    int
	// interval is a realtime source's period; mean is a best-effort
	// source's mean inter-arrival time in picoseconds.
	interval sim.Time
	mean     float64
	// tick is a realtime source's pending periodic send: zero until its
	// first, random-phase send has fired.
	tick    sim.Event
	stopped bool
	// Sent counts messages emitted.
	Sent uint64
	// Withheld counts realtime admission skips.
	Withheld uint64
}

// Stop halts the generator. Idempotent. A realtime source's pending
// periodic send is cancelled; its first send, and a best-effort source's
// next arrival, still fire but emit nothing.
func (g *Generator) Stop() {
	if !g.stopped && g.s != nil {
		g.stopped = true
		g.s.Cancel(g.tick)
	}
}

// BestEffort starts a Poisson source (see StartBestEffort).
func BestEffort(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, send SendFunc) *Generator {
	g := new(Generator)
	g.StartBestEffort(s, rng, rate, size, targets, send)
	return g
}

// StartRealtime starts g as a constant-bit-rate source sending size-byte
// messages at the given offered rate (bits/s) to destinations drawn
// uniformly from targets. Before each send it consults admit (nil admits
// all); when admit returns false the packet is withheld, modelling the
// paper's "an application does not send any packet when the current
// network status cannot support the application's bandwidth
// requirement".
func (g *Generator) StartRealtime(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, admit Admitter, send Sender) {
	if rate <= 0 || len(targets) == 0 {
		panic("workload: realtime source needs a positive rate and targets")
	}
	interval := sim.Time(float64(size*8) / rate * 1e12)
	if interval <= 0 {
		interval = 1
	}
	*g = Generator{s: s, rng: rng, send: send, admit: admit, targets: targets, size: size, interval: interval}
	// Sources start at a random phase within their period so that a
	// fleet of same-rate CBR streams does not inject in lockstep.
	phase := sim.Time(rng.Int63n(int64(interval))) + 1
	s.ScheduleCall(phase, (*realtimeSend)(g), nil, 0)
}

// StartBestEffort starts g as a Poisson source with mean offered rate
// (bits/s): the inter-arrival times are exponential and sends ignore
// network state.
func (g *Generator) StartBestEffort(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, send Sender) {
	if rate <= 0 || len(targets) == 0 {
		panic("workload: best-effort source needs a positive rate and targets")
	}
	*g = Generator{s: s, rng: rng, send: send, targets: targets, size: size, mean: float64(size*8) / rate * 1e12}
	g.arm()
}

// realtimeSend and bestEffortArrival are a source's events.
type (
	realtimeSend      Generator
	bestEffortArrival Generator
)

// Fire sends (or withholds) one realtime packet, then schedules the next
// a period on — after the send, so each tick keeps the event slot a
// periodic timer armed after its callback would take.
func (h *realtimeSend) Fire(any, uint64) {
	g := (*Generator)(h)
	if g.stopped {
		return
	}
	if g.admit != nil && !g.admit.Admit() {
		g.Withheld++
	} else {
		g.Sent++
		g.send.Send(g.targets[g.rng.Intn(len(g.targets))], g.size)
	}
	if !g.stopped {
		g.tick = g.s.ScheduleCall(g.interval, h, nil, 0)
	}
}

// Fire sends one best-effort packet and draws the next arrival.
func (h *bestEffortArrival) Fire(any, uint64) {
	g := (*Generator)(h)
	if g.stopped {
		return
	}
	g.Sent++
	g.send.Send(g.targets[g.rng.Intn(len(g.targets))], g.size)
	g.arm()
}

// arm schedules a best-effort source's next arrival.
func (g *Generator) arm() {
	d := sim.Time(g.rng.ExpFloat64() * g.mean)
	if d < 1 {
		d = 1
	}
	g.s.ScheduleCall(d, (*bestEffortArrival)(g), nil, 0)
}

// RawUDSender injects UD packets directly through an HCA, bypassing the
// transport layer — the injection path for the fabric-level DoS
// experiments (Figures 1 and 5).
type RawUDSender struct {
	HCA   *fabric.HCA
	Class fabric.Class
	PKey  packet.PKey
	// LIDOf maps a node index to its LID.
	LIDOf func(int) packet.LID
	// Attack marks emitted deliveries as attack traffic.
	Attack bool

	psn uint32
}

// Send builds, seals and injects one UD packet of the given payload size.
func (r *RawUDSender) Send(dst int, size int) {
	r.SendPKey(dst, size, r.PKey)
}

// SendPKey is Send with an explicit P_Key (attackers randomize it).
func (r *RawUDSender) SendPKey(dst int, size int, pk packet.PKey) {
	if size > packet.MTU {
		size = packet.MTU
	}
	d := r.HCA.Params().NewMessage(r.Class,
		packet.LRH{SLID: r.HCA.LID(), DLID: r.LIDOf(dst)},
		packet.BTH{OpCode: packet.UDSendOnly, PKey: pk, DestQP: 2, PSN: r.psn & 0xFFFFFF},
		size) // all zeros: the image is the payload
	*d.Pkt.DETH = packet.DETH{QKey: 0x1, SrcQP: 2}
	r.psn++
	if err := icrc.Seal(d.Pkt); err != nil {
		panic(err)
	}
	d.Attack, d.Source = r.Attack, r.HCA.Name()
	r.HCA.Send(d)
}

// Attacker floods the fabric at full line rate from one compromised node:
// each packet goes to a uniformly random destination with a uniformly
// random (invalid with overwhelming probability) P_Key, exactly the
// paper's attack model. DutyCycle in (0,1] limits the fraction of each
// Cycle the attacker is active (Figure 5 uses 1%); 1.0 means always on
// (Figure 1).
type Attacker struct {
	Sender    *RawUDSender
	Targets   []int
	Size      int
	DutyCycle float64
	Cycle     sim.Time
	// FixedPKey, when non-zero, replaces the random per-packet P_Key:
	// the "stolen key" variant where the attacker replays a legitimate
	// partition key instead of guessing.
	FixedPKey packet.PKey

	// Rate scales the injection rate below line speed: packets are
	// spaced lineInterval/Rate apart. Zero or one floods back-to-back
	// (the classic behaviour); the congestion experiment sweeps it.
	Rate float64

	rng  *rand.Rand
	s    *sim.Simulator
	done bool
	// The burst in flight, one for the attacker's life: whether it is
	// on, its packet spacing and on-time, and its pending packet event.
	active bool
	iv, on sim.Time
	tick   sim.Event
	// Bursts counts attack windows started.
	Bursts uint64
}

// StartAttacker launches the attack process.
func StartAttacker(s *sim.Simulator, rng *rand.Rand, sender *RawUDSender, targets []int, size int, dutyCycle float64, cycle sim.Time) *Attacker {
	if dutyCycle <= 0 || dutyCycle > 1 {
		panic("workload: duty cycle must be in (0,1]")
	}
	sender.Attack = true
	a := &Attacker{
		Sender: sender, Targets: targets, Size: size,
		DutyCycle: dutyCycle, Cycle: cycle, rng: rng, s: s,
	}
	a.scheduleBurst(0)
	return a
}

// lineInterval is the wire time of one attack packet: full speed means
// back-to-back packets.
func (a *Attacker) lineInterval() sim.Time {
	wire := packet.LRHSize + packet.BTHSize + packet.DETHSize + a.Size +
		packet.ICRCSize + packet.VCRCSize
	return a.Sender.HCA.Params().SerializationDelay(wire)
}

func (a *Attacker) scheduleBurst(after sim.Time) {
	a.s.ScheduleCall(after, (*burstOn)(a), nil, 0)
}

// burstOn, burstOff and attackSend are an attacker's events: named
// handler types over Attacker (see sim.Handler), so a burst schedules
// the same events a fresh generator per burst would and allocates
// nothing.
type (
	burstOn    Attacker
	burstOff   Attacker
	attackSend Attacker
)

// Fire starts a burst: packets every iv from now on and, under a duty
// cycle, the burst's end.
func (h *burstOn) Fire(any, uint64) {
	a := (*Attacker)(h)
	if a.done {
		return
	}
	a.Bursts++
	a.iv = a.lineInterval()
	if a.Rate > 0 && a.Rate < 1 {
		a.iv = sim.Time(float64(a.iv) / a.Rate)
	}
	a.active = true
	a.tick = a.s.ScheduleCall(a.iv, (*attackSend)(a), nil, 0)
	if a.DutyCycle >= 1 {
		return // continuous attack, no off period
	}
	a.on = sim.Time(float64(a.Cycle) * a.DutyCycle)
	a.s.ScheduleCall(a.on, (*burstOff)(a), nil, 0)
}

// Fire ends a burst and schedules the next.
func (h *burstOff) Fire(any, uint64) {
	a := (*Attacker)(h)
	a.stopBurst()
	if !a.done {
		a.scheduleBurst(a.Cycle - a.on)
	}
}

// Fire sends one attack packet and schedules the next.
func (h *attackSend) Fire(any, uint64) {
	a := (*Attacker)(h)
	if !a.active {
		return
	}
	dst := a.Targets[a.rng.Intn(len(a.Targets))]
	pk := a.FixedPKey
	if pk == 0 {
		pk = packet.PKey(a.rng.Intn(1 << 16))
	}
	a.Sender.SendPKey(dst, a.Size, pk)
	if a.active {
		a.tick = a.s.ScheduleCall(a.iv, (*attackSend)(a), nil, 0)
	}
}

// stopBurst cancels the burst's pending packet. Idempotent.
func (a *Attacker) stopBurst() {
	if a.active {
		a.active = false
		a.s.Cancel(a.tick)
	}
}

// Stop halts the attacker permanently.
func (a *Attacker) Stop() {
	a.done = true
	a.stopBurst()
}
