package fabric

import (
	"fmt"
	"math/bits"

	"ibasec/internal/icrc"
	"ibasec/internal/packet"
	"ibasec/internal/sim"
)

// Delivery carries one packet through the fabric together with the
// timestamps the paper's metrics are computed from:
//
//	queuing time   = InjectedAt - EnqueuedAt   (wait in the HCA send queue
//	                                            before first byte on wire)
//	network latency = DeliveredAt - InjectedAt (first byte on wire to full
//	                                            arrival at the target HCA)
//
// (Section 3.1: "The parameter of significance here is the queuing time,
// which is the waiting time that a packet waits before it gets served in
// HCA.")
type Delivery struct {
	Pkt   *packet.Packet
	Class Class
	VL    uint8

	// Attack marks packets generated by an attacker; they are excluded
	// from the legitimate-traffic statistics the figures report.
	Attack bool
	// wire is the packet's wire size, read once as it joins an output
	// queue and used until it leaves it. It fills padding after VL and
	// Attack, so the message block keeps its allocation size class.
	wire uint16

	Source string // originating node name, for diagnostics

	EnqueuedAt  sim.Time
	InjectedAt  sim.Time
	DeliveredAt sim.Time
	Hops        int  // switches traversed
	injected    bool // InjectedAt has been stamped

	// Tainted marks a packet struck by link bit errors since its CRCs
	// were last verified; devices VCRC-check tainted packets (clean
	// packets trivially pass, so the check is skipped as an
	// optimization with identical observable behaviour). Malformed
	// marks corruption that destroyed the framing itself.
	Tainted   bool
	Malformed bool
	// DeliveredTo is the node index of the HCA that delivered the packet,
	// stamped with DeliveredAt: a collector shared by a fabric's HCAs
	// keys its per-node state by it. It fills padding after Malformed.
	DeliveredTo int32

	// credCh and credTag name the input-buffer credit this packet holds
	// at the upstream sender: the channel it arrived over (nil when it
	// holds none) and that channel's epoch<<8|VL tag at arrival. Devices
	// must release it exactly once when the packet leaves their input
	// stage.
	credCh  *outChannel
	credTag uint64

	// home is the block this delivery is part of, which release recycles
	// at the message's terminal; nil for a delivery built by hand.
	home *block
}

// block is the header block of one message: the delivery that takes it
// through the fabric, its packet — whose wire image stays with the block
// from one message to the next — and the extended transport headers the
// packet may point at. free, last and the poison build (-tags poolpoison)
// hold the ownership rule of DESIGN §8.
type block struct {
	d    Delivery
	p    packet.Packet
	deth packet.DETH
	reth packet.RETH
	aeth packet.AETH

	free bool    // on the free list (or poisoned): not to be touched
	last ObsKind // the terminal the block was last released at
	gen  uint32  // messages the block has carried to their terminal
}

// pool is one fabric's message free list — a plain LIFO slice (one
// simulation is one goroutine), grown on demand — and the slabs a run's
// warm-up draws from: message blocks and their wire images are carved
// from slabs, not allocated one by one, and so is each lane's first
// output ring. blocks counts the blocks made, so blocks - len(free)
// messages are queued or on the wire.
type pool struct {
	free   []*block
	blocks int

	slab   []block     // blocks not yet handed out
	images []byte      // wire-image bytes not yet handed out
	rings  []*Delivery // first-ring slots not yet handed out
	grown  []*Delivery // slots for lanes that outgrew their ring
	// channels counts the fabric's channels (Links): a ring slab holds
	// one first ring per channel. ends counts its HCAs (NewHCAs): the
	// messages in flight grow with them, so a block or image slab holds
	// at least one per end port.
	channels, ends int
}

// Slab sizes. blockSlab blocks of 280 bytes (TestBlockSize) fill the
// 4864-byte allocation size class. An image slab is the power of two at
// or above imageSlab images of the size that ran out (a power of two is
// an exact size class), so it holds 8 to 15 of them and leaves less than
// one unused at its end; each is carved at its exact size, where an
// image's own allocation rounded up to its size class. A fabric with more
// end ports than those counts makes its slabs one block, or one image,
// per end port; an image slab past the largest size class, 32 KiB, is
// whole pages and is made at its exact length.
const (
	blockSlab = 17
	imageSlab = 8
	firstRing = 8 // slots in a lane's first ring (vlQueue doubles from 8)
)

// slabs returns the fabric's free list and slabs, made on first use.
func (p *Params) slabs() *pool {
	if p.pool == nil {
		p.pool = new(pool)
	}
	return p.pool
}

// newBlock carves a block from the slab, starting a new slab when it is
// used up.
func (pl *pool) newBlock() *block {
	if len(pl.slab) == 0 {
		pl.slab = make([]block, max(blockSlab, pl.ends))
	}
	b := &pl.slab[0]
	pl.slab = pl.slab[1:]
	pl.blocks++
	return b
}

// image carves a size-byte wire image, its capacity stopping at its
// length.
func (pl *pool) image(size int) []byte {
	if len(pl.images) < size {
		n := max(imageSlab, pl.ends) * size
		if n <= 32<<10 {
			n = 1 << bits.Len(uint(n-1))
		}
		pl.images = make([]byte, n)
	}
	img := pl.images[:size:size]
	pl.images = pl.images[size:]
	return img
}

// firstRing hands out an empty lane ring of firstRing slots.
func (p *Params) firstRing() []*Delivery {
	pl := p.slabs()
	if len(pl.rings) == 0 {
		pl.rings = make([]*Delivery, max(pl.channels, 1)*firstRing)
	}
	r := pl.rings[:firstRing:firstRing]
	pl.rings = pl.rings[firstRing:]
	return r
}

// grownRing hands out an empty n-slot ring for a lane that outgrew its
// last, from a slab of at least two first rings' slots per end port.
func (p *Params) grownRing(n int) []*Delivery {
	pl := p.slabs()
	if len(pl.grown) < n {
		pl.grown = make([]*Delivery, max(n, 2*firstRing*pl.ends))
	}
	r := pl.grown[:n:n]
	pl.grown = pl.grown[n:]
	return r
}

// NewMessage is the one constructor of a message the fabric will carry:
// a delivery of the given class whose packet has the given LRH and BTH,
// set to zero whichever of DETH, RETH and AETH the opcode calls for, and
// an n-byte zeroed payload window (Packet.AllocPayload) in its wire
// image. The caller fills in those headers and the window, seals the
// packet and hands the delivery to HCA.Send (or Switch.SendRaw); from
// then until its terminal event the message belongs to the fabric, which
// recycles the block — so nothing may keep d, d.Pkt or a window into its
// image past the upcall that showed it (DESIGN §8).
func (p *Params) NewMessage(class Class, lrh packet.LRH, bth packet.BTH, n int) *Delivery {
	pl := p.slabs()
	var b *block
	if free := pl.free; len(free) > 0 {
		b, pl.free = free[len(free)-1], free[:len(free)-1]
		b.p.Reset()
	} else {
		b = pl.newBlock()
	}
	b.free = false
	b.p.LRH, b.p.BTH = lrh, bth
	if bth.OpCode.HasDETH() {
		b.deth = packet.DETH{}
		b.p.DETH = &b.deth
	}
	if bth.OpCode.HasRETH() {
		b.reth = packet.RETH{}
		b.p.RETH = &b.reth
	}
	if bth.OpCode.HasAETH() {
		b.aeth = packet.AETH{}
		b.p.AETH = &b.aeth
	}
	if size := b.p.ImageSize(n); b.p.ImageCap() < size {
		b.p.ProvideImage(pl.image(size))
	}
	b.p.AllocPayload(n)
	b.d = Delivery{Pkt: &b.p, Class: class, VL: class.VL(), home: b}
	return &b.d
}

// release returns a message's block to the free list. It is called at
// every terminal in this package — after the terminal's observe call and
// upcall have returned — and, for a message that never set out, by
// Discard; nowhere else. kind names the terminal, for the panic a second
// release raises. A delivery built by hand (tests, the attack suite's
// replays, RC retransmissions) has no block and is left to the collector.
func (p *Params) release(d *Delivery, kind ObsKind) {
	b := d.home
	if b == nil {
		return
	}
	if b.free {
		panic(fmt.Sprintf("fabric: message released twice: at %v, and before that at %v", kind, b.last))
	}
	b.free, b.last = true, kind
	b.gen++
	if PoolPoison {
		// Use-after-release must fault or break a golden: scribble over the
		// image, cut the packet loose, and retire the block.
		for _, img := range [][]byte{b.p.Payload, b.p.Wire()} {
			for i := range img {
				img[i] = 0xDB
			}
		}
		d.Pkt = nil
		p.pool.blocks--
		return
	}
	p.pool.free = append(p.pool.free, b)
}

// Discard gives back a message drawn with NewMessage that will not be sent
// after all (it could not be sealed).
func (p *Params) Discard(d *Delivery) { p.release(d, obsUnsent) }

// NewMAD wraps a management datagram payload into a sealed VL15
// message: a UD send to QP0 under the default P_Key, which is how
// every MAD in the simulator travels — directed-route SMPs (dlid
// LIDPermissive), traps, HA heartbeats and state syncs. The payload is
// copied into the packet's own image (the caller keeps its buffer, which
// may live on its stack), so its Payload is the image: a transit SMA
// edits it in place and icrc.Seal reseals it without allocating. Callers
// set Source and Attack.
func (p *Params) NewMAD(slid, dlid packet.LID, payload []byte) *Delivery {
	d := p.NewMessage(ClassManagement,
		packet.LRH{SLID: slid, DLID: dlid, VL: VLManagement},
		packet.BTH{OpCode: packet.UDSendOnly, PKey: 0xFFFF, DestQP: 0}, len(payload))
	copy(d.Pkt.Payload, payload)
	if err := icrc.Seal(d.Pkt); err != nil {
		panic(fmt.Sprintf("fabric: sealing MAD: %v", err))
	}
	return d
}

// generation tells the messages one block carries apart (see hoqExpire);
// a delivery built by hand is only ever one.
func (d *Delivery) generation() uint32 {
	if d.home == nil {
		return 0
	}
	return d.home.gen
}

// ReturnCredit releases the upstream buffer credit, if any. It is
// idempotent. The return travels back over the wire; one tagged before a
// link reset is discarded (see outChannel.returnCredit).
func (d *Delivery) ReturnCredit() {
	if c := d.credCh; c != nil {
		d.credCh = nil
		c.returnCredit(d.credTag)
	}
}

// QueuingTime returns the HCA send-queue wait.
func (d *Delivery) QueuingTime() sim.Time { return d.InjectedAt - d.EnqueuedAt }

// NetworkLatency returns the injection-to-delivery latency.
func (d *Delivery) NetworkLatency() sim.Time { return d.DeliveredAt - d.InjectedAt }
