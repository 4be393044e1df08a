package sim

import "math/bits"

// slabBlock is the number of event slots carved out per allocation when
// the free list runs dry. One block comfortably covers a switch radix's
// worth of in-flight arrivals, so even short-lived simulators make a
// handful of allocations instead of one per scheduled event.
const slabBlock = 64

// The timing wheel holds every event due within one lap of the cursor:
// wheelSize buckets of 2^wheelShift ps each. A fabric hop pushes two
// events at fixed delays — a switch lookup (200 ns) and the packet
// landing at the peer, serialisation plus propagation (0.33 us at 64 B,
// 3.41 us at 1 KiB) — and, only when a packet waits on one, the
// serializer's end (0.31-3.39 us) or a credit return one propagation
// delay out (20 ns), pushed late into the slot Reserve took for it.
// Those are nearly all pushes, so the lap must reach past 3.41 us plus a
// bucket. 512 buckets of 8.192 ns make a lap of 2^22 ps (4.19 us) with
// 4 KiB of bucket pointers. Wider buckets put more of a 64 B hop's
// events into each one, where a push that is not its bucket's latest
// walks the bucket's list (a quarter of data-64b's pushes walk, 0.7
// links on average, at this width); narrower ones need more buckets for
// the same lap.
const (
	wheelShift = 13
	wheelBits  = 9
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// heapArity is the fan-out of the far-event heap, which holds what the
// wheel cannot: anything due more than a lap ahead of the cursor, such as
// SM and transport timers — 0-6 % of the pushes on bench's workloads.
// Chosen by hops_per_s on bench's data-64b workload when the heap still
// held every event: with the branch-free child selection in down, 2, 3
// and 4 read within 2% of one another (4 ahead in five of five
// alternating pairs) and 8 a quarter slower. down's full-set tournament
// is written out for exactly four children.
const heapArity = 4

// Values of eventSlot.index that are not heap positions.
const (
	notQueued int32 = -1 // fired, cancelled, or never scheduled
	onWheel   int32 = -2 // in a wheel bucket
)

// Handler is a pre-bound event target: ScheduleCall stores the handler
// and its two operands in the event slot, and firing calls Fire with them.
// Per-packet code implements it on a named type over the struct the
// callback works on — (*wireArrive)(ch) is a free pointer conversion — and
// packs what a closure would have captured into arg (a pointer, which
// boxes into an interface without allocating) and n, so scheduling
// allocates nothing.
type Handler interface {
	Fire(arg any, n uint64)
}

// funcHandler adapts a plain callback to Handler. A func value is
// pointer-shaped, so converting one to the interface does not allocate.
type funcHandler func()

func (f funcHandler) Fire(any, uint64) { f() }

// eventSlot is the pooled storage behind an Event handle. Slots cycle
// queue -> fired/cancelled -> free list -> queue; gen increments every
// time a slot leaves the queue, so a stale handle held across that
// transition can never touch the slot's next occupant. owner pins the
// slot to the queue that carved it, so a handle presented to the wrong
// scheduler is refused instead of corrupting a foreign queue. The firing
// key (at, seq) orders a wheel bucket's list, which next threads; the
// heap keeps its own copy of the key, so sifting never dereferences a
// slot.
type eventSlot struct {
	at    Time
	seq   uint64
	next  *eventSlot // the bucket's next-later event (the latest's next is the earliest); on the free list, the next free slot
	gen   uint64
	h     Handler
	arg   any
	n     uint64
	index int32 // heap index, onWheel, or notQueued
	owner *eventQueue
}

// Event is a handle to a scheduled callback, returned by Schedule. It is
// a small value, cheap to copy and store; the zero Event is valid and
// refers to nothing. A handle stays usable after its event fires or is
// cancelled — Pending just reports false — because the underlying slot
// is generation-checked before any access.
type Event struct {
	slot *eventSlot
	gen  uint64
	at   Time
}

// At returns the simulation time at which the event fires (or fired, or
// would have fired if cancelled). Zero for the zero Event.
func (e Event) At() Time { return e.at }

// Pending reports whether the event is still queued: it has neither
// fired nor been cancelled. Safe on the zero Event.
func (e Event) Pending() bool { return e.slot != nil && e.slot.gen == e.gen }

// heapEntry is one far event as the heap sees it: the (time, seq) key by
// value, so sift comparisons read the heap's own contiguous memory, plus
// the slot holding the callback.
type heapEntry struct {
	at   Time
	seq  uint64
	slot *eventSlot
}

// before reports, as 1 or 0, whether a fires before b: (at, seq) compared
// as one 128-bit number through a borrow chain (times are never
// negative). It returns the bit rather than a bool so that down can pick
// the earliest child by arithmetic — as branches those comparisons are
// coin flips, since heap order is the very thing being established, and
// their mispredictions made sift-down a third of a small-packet run.
func (a *heapEntry) before(b *heapEntry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow
}

// wheel is a hashed timing wheel: bucket i holds the events whose time
// falls in bucket number i mod wheelSize, as a circular list in (at, seq)
// order that tail[i] enters at its latest event. Every event on the
// wheel lies in [cursor, cursor+wheelSize) bucket numbers, so a bucket
// never mixes laps and the first occupied bucket at or after the cursor
// holds the wheel's earliest event. occ has bit i set iff bucket i is
// occupied. The zero value is an empty wheel.
type wheel struct {
	tail   [wheelSize]*eventSlot
	occ    [wheelWords]uint64
	cursor int64 // bucket number of the last popped event's time
	n      int
}

// bucketOf returns the bucket number of time at.
func bucketOf(at Time) int64 { return int64(at) >> wheelShift }

// before reports whether a fires before b.
func (a *eventSlot) before(b *eventSlot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push links sl, whose at is within a lap of the cursor, into its bucket
// in (at, seq) order. A fresh push has the highest seq yet, so it goes
// after every event with the same or an earlier time and is usually the
// bucket's latest; a ticket's reserved seq can fall anywhere.
func (w *wheel) push(sl *eventSlot) {
	sl.index = onWheel
	w.n++
	b := int(bucketOf(sl.at)) & wheelMask
	t := w.tail[b]
	switch {
	case t == nil:
		sl.next = sl
		w.tail[b] = sl
		w.occ[b>>6] |= 1 << (b & 63)
	case t.before(sl):
		sl.next = t.next
		t.next = sl
		w.tail[b] = sl
	default:
		// t is later than sl, so the walk from the head stops by t.
		p := t
		for p.next.before(sl) {
			p = p.next
		}
		sl.next = p.next
		p.next = sl
	}
}

// scan returns the first occupied bucket in the bitmap words after
// bucket c's, wrapping round to c's own word for the buckets below c —
// the far end of the lap — or -1 when the wheel is empty. head checks
// the rest of c's word itself, where the next event almost always is.
func (w *wheel) scan(c int) int {
	if w.n == 0 {
		return -1
	}
	i := c >> 6
	for j := 1; j <= wheelWords; j++ {
		k := (i + j) & (wheelWords - 1)
		if m := w.occ[k]; m != 0 {
			return k<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: wheel count disagrees with its occupancy bitmap")
}

// pop unlinks and returns the earliest event of occupied bucket b.
func (w *wheel) pop(b int) *eventSlot {
	t := w.tail[b]
	sl := t.next
	if sl == t {
		w.tail[b] = nil
		w.occ[b>>6] &^= 1 << (b & 63)
	} else {
		t.next = sl.next
	}
	w.n--
	return sl
}

// unlink removes sl from its bucket, wherever it sits in the list.
func (w *wheel) unlink(sl *eventSlot) {
	b := int(bucketOf(sl.at)) & wheelMask
	t := w.tail[b]
	p := t
	for p.next != sl {
		p = p.next
	}
	switch {
	case p == sl: // sl was the bucket's only event
		w.tail[b] = nil
		w.occ[b>>6] &^= 1 << (b & 63)
	case sl == t:
		p.next = sl.next
		w.tail[b] = p
	default:
		p.next = sl.next
	}
	w.n--
}

// eventQueue is the Simulator's slab-pooled pending-event queue, ordered
// by (time, seq): it numbers pushes and reservations itself so that
// events at the same instant fire in the order their slots were taken.
// Events due within a lap of the wheel's cursor go on the wheel, the rest
// on a heapArity-ary min-heap; the earliest event is the earlier of the
// wheel's first and the heap's root. The zero value is ready to use. Not
// safe for concurrent use.
type eventQueue struct {
	wheel wheel
	heap  []heapEntry
	seq   uint64      // next push's or reservation's tie-break number
	free  *eventSlot  // the free list, a LIFO stack threaded through next
	block []eventSlot // tail of the current slab block, carved lazily
}

func (q *eventQueue) alloc() *eventSlot {
	if sl := q.free; sl != nil {
		q.free = sl.next
		return sl
	}
	if len(q.block) == 0 {
		q.block = make([]eventSlot, slabBlock)
	}
	sl := &q.block[0]
	q.block = q.block[1:]
	sl.owner = q
	return sl
}

// release returns a slot to the free list after bumping its generation,
// which atomically (from the single-threaded caller's point of view)
// invalidates every outstanding handle to it.
func (q *eventQueue) release(sl *eventSlot) {
	sl.gen++
	sl.h, sl.arg = nil, nil
	sl.next, q.free = q.free, sl
}

// push queues h.Fire(arg, n) at time at, in the next seq, and returns its
// handle. The caller has already validated at against its clock, which
// is never earlier than the last popped event's: at's bucket is at or
// after the cursor.
func (q *eventQueue) push(at Time, h Handler, arg any, n uint64) Event {
	q.seq++
	return q.insert(at, q.seq-1, h, arg, n)
}

// insert queues h.Fire(arg, n) in the slot (at, seq), which push or a
// reservation has already numbered.
func (q *eventQueue) insert(at Time, seq uint64, h Handler, arg any, n uint64) Event {
	sl := q.alloc()
	sl.h, sl.arg, sl.n = h, arg, n
	sl.at, sl.seq = at, seq
	if bucketOf(at)-q.wheel.cursor < wheelSize {
		q.wheel.push(sl)
	} else {
		q.pushHeap(heapEntry{at: at, seq: sl.seq, slot: sl})
	}
	return Event{slot: sl, gen: sl.gen, at: at}
}

// pushHeap adds a far event to the heap.
func (q *eventQueue) pushHeap(e heapEntry) {
	if q.heap == nil {
		// Start at a slab block's worth: doubling up from one entry
		// would copy the 24-byte entries seven times on the way to a
		// fresh simulator's first hundred far events.
		q.heap = make([]heapEntry, 0, slabBlock)
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap)-1, e)
}

// up places e at or above the hole at index i.
func (q *eventQueue) up(i int, e heapEntry) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / heapArity
		if e.before(&h[p]) == 0 {
			break
		}
		h[i] = h[p]
		h[i].slot.index = int32(i)
		i = p
	}
	h[i] = e
	e.slot.index = int32(i)
}

// down places e at or below the hole at index i.
func (q *eventQueue) down(i int, e heapEntry) {
	h := q.heap
	for {
		c := heapArity*i + 1
		if c >= len(h) {
			break
		}
		// m is the earliest child, selected without branching: a full
		// set of four by a two-round tournament, the ragged last set by
		// a running minimum. x += (y-x) & -bit is "if bit { x = y }".
		m := c
		if c+heapArity <= len(h) {
			m01 := c + int(h[c+1].before(&h[c]))
			m23 := c + 2 + int(h[c+3].before(&h[c+2]))
			m = m01 + (m23-m01)&-int(h[m23].before(&h[m01]))
		} else {
			for j := c + 1; j < len(h); j++ {
				m += (j - m) & -int(h[j].before(&h[m]))
			}
		}
		if h[m].before(&e) == 0 {
			break
		}
		h[i] = h[m]
		h[i].slot.index = int32(i)
		i = m
	}
	h[i] = e
	e.slot.index = int32(i)
}

// remove takes the entry at heap index i out of the heap and returns its
// slot.
func (q *eventQueue) remove(i int) *eventSlot {
	h := q.heap
	sl := h[i].slot
	n := len(h) - 1
	last := h[n]
	h[n] = heapEntry{}
	q.heap = h[:n]
	if i < n {
		if i > 0 && last.before(&h[(i-1)/heapArity]) != 0 {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return sl
}

// head finds the earliest pending event: its time, and the wheel bucket
// whose first event it is, or -1 when it is the heap's root. ok is false
// when the queue is empty.
func (q *eventQueue) head() (at Time, b int, ok bool) {
	// The wheel's earliest event heads the first occupied bucket at or
	// after the cursor's.
	w := &q.wheel
	c := int(w.cursor) & wheelMask
	if m := w.occ[c>>6] >> (c & 63); m != 0 {
		b = c + bits.TrailingZeros64(m)
	} else {
		b = w.scan(c)
	}
	if b >= 0 {
		sl := w.tail[b].next
		if len(q.heap) == 0 {
			return sl.at, b, true
		}
		if r := &q.heap[0]; sl.at < r.at || sl.at == r.at && sl.seq < r.seq {
			return sl.at, b, true
		}
	} else if len(q.heap) == 0 {
		return 0, -1, false
	}
	return q.heap[0].at, -1, true
}

// cancel removes a pending event, reporting whether it did. Handles that
// already fired, were cancelled, are zero, or belong to another queue
// are refused.
func (q *eventQueue) cancel(e Event) bool {
	sl := e.slot
	if sl == nil || sl.gen != e.gen || sl.index == notQueued || sl.owner != q {
		return false
	}
	if sl.index == onWheel {
		q.wheel.unlink(sl)
	} else {
		q.remove(int(sl.index))
	}
	sl.index = notQueued
	q.release(sl)
	return true
}

func (q *eventQueue) len() int { return q.wheel.n + len(q.heap) }

// shrink gives back the heap slice's slack after a burst of far events
// drains, so a queue that once held tens of thousands of them does not
// pin that memory for the rest of a long run.
func (q *eventQueue) shrink() {
	if cap(q.heap) >= 1024 && len(q.heap)*4 <= cap(q.heap) {
		h := make([]heapEntry, len(q.heap), len(q.heap)*2)
		copy(h, q.heap)
		q.heap = h
	}
}
