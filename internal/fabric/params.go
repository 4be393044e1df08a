// Package fabric is the packet-level InfiniBand fabric model: full-duplex
// serial links with credit-based flow control, 16 virtual lanes with
// priority arbitration, 5-port store-and-forward switches, and Host
// Channel Adapters with per-VL send queues. It reproduces the paper's
// simulation testbed (section 3.1, Table 1): 2.5 Gb/s 1x links, 16 VLs
// per physical link, MTU 1024 bytes, realtime and best-effort traffic on
// separate VLs with realtime given arbitration priority.
package fabric

import (
	"fmt"
	"math"
	"math/rand"

	"ibasec/internal/sim"
)

// NumVLs is the number of virtual lanes per physical link (Table 1).
const NumVLs = 16

// VL assignment used throughout the testbed. Best-effort and realtime
// traffic ride separate data VLs so they "do not interfere with each
// other" (section 3.1); VL 15 is the management lane (SMPs, traps).
const (
	VLBestEffort uint8 = 0
	VLRealtime   uint8 = 1
	VLManagement uint8 = 15
)

// Class labels a traffic class for metrics.
type Class int

// Traffic classes.
const (
	ClassBestEffort Class = iota
	ClassRealtime
	ClassManagement
)

func (c Class) String() string {
	switch c {
	case ClassBestEffort:
		return "best-effort"
	case ClassRealtime:
		return "realtime"
	case ClassManagement:
		return "management"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// VL returns the virtual lane a class travels on.
func (c Class) VL() uint8 {
	switch c {
	case ClassRealtime:
		return VLRealtime
	case ClassManagement:
		return VLManagement
	default:
		return VLBestEffort
	}
}

// Params holds the physical and architectural constants of the testbed.
type Params struct {
	// LinkBandwidth is the raw link signalling rate in bits per second
	// (Table 1: 2.5 Gb/s for a 1x link).
	LinkBandwidth float64
	// PropDelay is the one-way wire propagation plus receiver latch
	// delay per link.
	PropDelay sim.Time
	// CreditsPerVL is the downstream input-buffer capacity per VL, in
	// packets (credit-based flow control: a sender transmits on a VL
	// only while it holds credits).
	CreditsPerVL int
	// SwitchLookup is the base per-packet forwarding latency inside a
	// switch (routing table access and arbitration setup).
	SwitchLookup sim.Time
	// ClockCycle is the switch/CA core clock period; the paper charges
	// partition-enforcement table lookups and MAC generation in units
	// of one cycle (section 6 assumes a CACTI-modelled 1-cycle SRAM
	// access).
	ClockCycle sim.Time
	// VLPriority maps each VL to an arbitration priority; higher wins.
	// Equal-priority VLs are served round-robin. Defaults give the
	// realtime VL priority over best-effort and the management VL top
	// priority, matching "IBA's VL arbitration gives higher priority
	// to realtime traffic" (section 3.2).
	VLPriority [NumVLs]int
	// Arbitration selects the arbiter. ArbStrictPriority always serves
	// the highest-priority eligible VL; ArbWeighted models the IBA
	// high/low-priority weighted-round-robin tables (IBA 7.6.9) with
	// every weight 1: VLs with VLPriority > 0 form the high-priority
	// table and are served round-robin, but after HighPriLimit
	// consecutive high-priority packets one low-priority packet is
	// served if waiting, so low-priority lanes cannot starve.
	Arbitration ArbitrationMode
	// HighPriLimit bounds consecutive high-priority packets in
	// ArbWeighted (the IBA Limit of High-Priority counter); zero means
	// 4.
	HighPriLimit int

	// HOQLife is the Head-of-Queue lifetime limit (IBA 18.2.5.4): a
	// packet that has stood at the head of a VL output queue for this
	// long without transmitting is discarded and its upstream credit
	// released. This is the architecture's forward-progress guarantee:
	// rerouting around failed links can create cyclic credit
	// dependencies that credit flow control alone never drains, and
	// dropping the expired head is what breaks the cycle. Zero disables
	// the limit (the default — no packet is ever aged out).
	HOQLife sim.Time

	// BitErrorRate is the per-bit corruption probability on every
	// link. When a packet is struck, a uniformly random wire bit flips;
	// the per-link VCRC catches it at the next device and the
	// end-to-end ICRC (or authentication tag) at the destination.
	// Requires RNG when non-zero.
	BitErrorRate float64
	// RNG drives corruption draws (and nothing else in the fabric);
	// the model stays deterministic for a fixed seed.
	RNG *rand.Rand

	// Observer, when non-nil, receives a callback for every notable
	// packet event (enqueue, forward, filter, drop, deliver) — the hook
	// the trace package records through. Keep implementations cheap:
	// they run inline with the simulation.
	Observer Observer

	// Congestion holds the Congestion Control Annex parameters. The
	// zero value disables congestion control entirely (no FECN marking,
	// no CCT throttling), keeping the fabric byte-identical to builds
	// that predate the feature.
	Congestion CCParams

	// pool is the message free list, made by the first message drawn. It
	// sits behind a pointer so that a by-value copy of a Params in use
	// shares the one list instead of forking its slice header.
	pool *pool
}

// Clone returns a copy of the parameters for one simulation to own: the
// copy starts without a message free list, so no block crosses from one
// simulation into another.
func (p *Params) Clone() *Params {
	q := *p
	q.pool = nil
	return &q
}

// CCParams are the IBA Congestion Control Annex (A10) knobs, modelled
// in the shape of the annex's CongestionControlTable attributes. All
// zero means congestion control is off. Devices do not act on these
// directly: the subnet manager's congestion-control manager programs
// them into switches and HCAs at bring-up via management datagrams, so
// an unprogrammed device never marks or throttles even when the
// fabric-wide Params carry CC settings.
type CCParams struct {
	// MarkingThreshold is the per-VL output-queue depth (in packets,
	// counting the in-flight head) at or above which a switch sets the
	// FECN bit on packets it forwards. Zero disables congestion control
	// — the master switch for the whole feature. The management VL is
	// never marked.
	MarkingThreshold int
	// CCTSize is the number of entries in the HCA congestion control
	// table: the cap on the per-flow CCT index. Each BECN arrival bumps
	// the flow's index by one, up to CCTSize.
	CCTSize int
	// CCTStep is the injection-delay quantum one CCT index level adds:
	// a flow at index i waits an extra i*CCTStep between packets.
	CCTStep sim.Time
	// CCTDecay is the recovery timer period: while a flow's CCT index
	// is non-zero it decrements by one every CCTDecay, so throttling
	// relaxes after congestion (or the attack) stops.
	CCTDecay sim.Time
}

// Enabled reports whether congestion control is switched on.
func (c *CCParams) Enabled() bool { return c.MarkingThreshold > 0 }

// Validate reports congestion-control configuration errors.
func (c *CCParams) Validate(creditsPerVL int) error {
	if c.MarkingThreshold < 0 {
		return fmt.Errorf("fabric: negative congestion marking threshold %d", c.MarkingThreshold)
	}
	if !c.Enabled() {
		if c.CCTSize != 0 || c.CCTStep != 0 || c.CCTDecay != 0 {
			return fmt.Errorf("fabric: CCT parameters set but marking threshold is zero (congestion control off)")
		}
		return nil
	}
	if max := 4 * creditsPerVL; c.MarkingThreshold > max {
		// A switch output queue converges at most the other four ports'
		// input buffers (credit flow control bounds each at CreditsPerVL
		// per lane), so a deeper threshold can never trip.
		return fmt.Errorf("fabric: marking threshold %d exceeds reachable queue depth %d (4x per-VL credits)", c.MarkingThreshold, max)
	}
	if c.CCTSize <= 0 {
		return fmt.Errorf("fabric: congestion control table size must be positive, got %d", c.CCTSize)
	}
	if c.CCTStep <= 0 {
		return fmt.Errorf("fabric: congestion control table step must be positive, got %v", c.CCTStep)
	}
	if c.CCTDecay <= 0 {
		return fmt.Errorf("fabric: congestion control table decay period must be positive, got %v", c.CCTDecay)
	}
	return nil
}

// ObsKind labels an observed packet event.
type ObsKind uint8

// Observed event kinds. The zero kind is never observed: it is where
// release files a message discarded unsent (Params.Discard).
const (
	obsUnsent     ObsKind = iota
	ObsEnqueue            // packet entered an HCA send queue
	ObsForward            // switch forwarded toward the next hop
	ObsFiltered           // partition enforcement dropped it
	ObsUnroutable         // no forwarding entry
	ObsCRCDrop            // VCRC/ICRC verification failed
	ObsPKeyReject         // destination HCA partition check failed
	ObsDeliver            // destination HCA accepted it
	ObsBlackhole          // destroyed by an injected fault (link down, MAD drop)
	ObsHOQDrop            // aged out by the Head-of-Queue lifetime limit
	ObsFECNMark           // switch set FECN: output queue at/above the marking threshold
	ObsBECN               // source HCA received backward congestion notification
	ObsCNP                // destination HCA emitted a congestion notification packet
)

func (k ObsKind) String() string {
	switch k {
	case obsUnsent:
		return "unsent"
	case ObsEnqueue:
		return "enqueue"
	case ObsForward:
		return "forward"
	case ObsFiltered:
		return "filtered"
	case ObsUnroutable:
		return "unroutable"
	case ObsCRCDrop:
		return "crc-drop"
	case ObsPKeyReject:
		return "pkey-reject"
	case ObsDeliver:
		return "deliver"
	case ObsBlackhole:
		return "blackhole"
	case ObsHOQDrop:
		return "hoq-drop"
	case ObsFECNMark:
		return "fecn-mark"
	case ObsBECN:
		return "becn"
	case ObsCNP:
		return "cnp"
	default:
		return "unknown"
	}
}

// Observer receives packet lifecycle events.
type Observer interface {
	Observe(at sim.Time, kind ObsKind, node string, d *Delivery)
}

// observe emits an event if an observer is configured.
func (p *Params) observe(at sim.Time, kind ObsKind, node string, d *Delivery) {
	if p.Observer != nil {
		p.Observer.Observe(at, kind, node, d)
	}
}

// ArbitrationMode selects the VL arbiter implementation.
type ArbitrationMode int

// Arbiter choices.
const (
	// ArbStrictPriority: higher VLPriority always wins (the paper's
	// "VL arbitration gives higher priority to realtime traffic").
	ArbStrictPriority ArbitrationMode = iota
	// ArbWeighted: IBA-style two-table weighted round robin with a
	// high-priority limit counter.
	ArbWeighted
)

func (m ArbitrationMode) String() string {
	if m == ArbWeighted {
		return "weighted"
	}
	return "strict-priority"
}

// DefaultParams returns the paper's Table 1 testbed parameters.
func DefaultParams() *Params {
	p := &Params{
		LinkBandwidth: 2.5e9,
		PropDelay:     20 * sim.Nanosecond,
		CreditsPerVL:  4,
		SwitchLookup:  200 * sim.Nanosecond,
		ClockCycle:    4 * sim.Nanosecond, // 250 MHz core clock
	}
	p.VLPriority[VLRealtime] = 1
	p.VLPriority[VLManagement] = 2
	return p
}

// ByteTime returns the serialization time of one byte on the link.
func (p *Params) ByteTime() sim.Time {
	return sim.Time(8e12/p.LinkBandwidth + 0.5)
}

// SerializationDelay returns the time to clock n bytes onto the link.
func (p *Params) SerializationDelay(n int) sim.Time {
	return sim.Time(n) * p.ByteTime()
}

// Validate reports configuration errors.
func (p *Params) Validate() error {
	if !(p.LinkBandwidth > 0 && p.LinkBandwidth < math.Inf(1)) {
		return fmt.Errorf("fabric: link bandwidth %v is not positive and finite", p.LinkBandwidth)
	}
	if p.CreditsPerVL <= 0 {
		return fmt.Errorf("fabric: credits per VL must be positive, got %d", p.CreditsPerVL)
	}
	if p.CreditsPerVL > math.MaxInt32 {
		// A channel counts each lane's credits in an int32.
		return fmt.Errorf("fabric: credits per VL %d exceed the largest credit count %d", p.CreditsPerVL, math.MaxInt32)
	}
	if p.PropDelay < 0 || p.SwitchLookup < 0 || p.ClockCycle < 0 {
		return fmt.Errorf("fabric: negative delay parameter")
	}
	if p.HOQLife < 0 {
		return fmt.Errorf("fabric: negative head-of-queue lifetime %v", p.HOQLife)
	}
	if !(p.BitErrorRate >= 0 && p.BitErrorRate < 1) {
		return fmt.Errorf("fabric: bit error rate %v outside [0,1)", p.BitErrorRate)
	}
	if p.BitErrorRate > 0 && p.RNG == nil {
		return fmt.Errorf("fabric: bit error injection needs an RNG")
	}
	return p.Congestion.Validate(p.CreditsPerVL)
}
