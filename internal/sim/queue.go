package sim

import "math/bits"

// slabBlock is the number of event slots carved out per allocation when
// the free list runs dry. One block comfortably covers a switch radix's
// worth of in-flight arrivals, so even short-lived simulators make a
// handful of allocations instead of one per scheduled event.
const slabBlock = 64

// heapArity is the fan-out of the pending-event heap. Chosen by
// hops_per_s on bench's data-64b workload, not by a queue rig: with the
// branch-free child selection in down, 2, 3 and 4 read within 2% of one
// another (4 ahead in five of five alternating pairs) and 8 a quarter
// slower; 4 also halves the levels a deeper queue would touch. down's
// full-set tournament is written out for exactly four children.
const heapArity = 4

// Handler is a pre-bound event target: ScheduleCall stores the handler
// and its two operands in the event slot, and Step calls Fire with them.
// Per-packet code implements it on a named type over the struct the
// callback works on — (*serDone)(ch) is a free pointer conversion — and
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
// scheduler is refused instead of corrupting a foreign heap. The firing
// key (time, seq) lives in the heap entry, not here: ordering never
// dereferences a slot.
type eventSlot struct {
	gen   uint64
	h     Handler
	arg   any
	n     uint64
	index int32 // heap index, -1 once removed
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

// heapEntry is one pending event as the heap sees it: the (time, seq)
// key by value, so sift comparisons read the heap's own contiguous
// memory, plus the slot holding the callback.
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

// eventQueue is the Simulator's slab-pooled pending-event queue: a
// heapArity-ary min-heap ordered by (time, seq), numbering pushes itself
// so that events at the same instant fire in the order they were
// scheduled. Each slot records its heap index so cancel is O(log n).
// The zero value is ready to use. Not safe for concurrent use.
type eventQueue struct {
	heap  []heapEntry
	seq   uint64 // next push's tie-break number
	free  []*eventSlot
	block []eventSlot // tail of the current slab block, carved lazily
}

func (q *eventQueue) alloc() *eventSlot {
	if n := len(q.free); n > 0 {
		sl := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
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
	q.free = append(q.free, sl)
}

// push queues h.Fire(arg, n) at time at and returns its handle. The
// caller has already validated at against its clock.
func (q *eventQueue) push(at Time, h Handler, arg any, n uint64) Event {
	sl := q.alloc()
	sl.h, sl.arg, sl.n = h, arg, n
	e := heapEntry{at: at, seq: q.seq, slot: sl}
	q.seq++
	if q.heap == nil {
		// Start at a slab block's worth: doubling up from one entry
		// would copy the 24-byte entries seven times on the way to a
		// fresh simulator's first hundred events.
		q.heap = make([]heapEntry, 0, slabBlock)
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap)-1, e)
	return Event{slot: sl, gen: sl.gen, at: at}
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

// remove takes the entry at heap index i out of the heap and returns it.
func (q *eventQueue) remove(i int) heapEntry {
	h := q.heap
	e := h[i]
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
	e.slot.index = -1
	return e
}

// headAt returns the firing time of the earliest pending event; ok is
// false when the queue is empty.
func (q *eventQueue) headAt() (at Time, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

// pop removes the earliest pending event and returns its time and slot.
// The caller releases the slot after capturing its callback.
func (q *eventQueue) pop() (Time, *eventSlot) {
	e := q.remove(0)
	return e.at, e.slot
}

// cancel removes a pending event, reporting whether it did. Handles that
// already fired, were cancelled, are zero, or belong to another queue
// are refused.
func (q *eventQueue) cancel(e Event) bool {
	sl := e.slot
	if sl == nil || sl.gen != e.gen || sl.index < 0 || sl.owner != q {
		return false
	}
	q.remove(int(sl.index))
	q.release(sl)
	return true
}

func (q *eventQueue) len() int { return len(q.heap) }

// shrink gives back the heap slice's slack after a burst drains, so a
// queue that once held tens of thousands of in-flight events does not
// pin that memory for the rest of a long run.
func (q *eventQueue) shrink() {
	if cap(q.heap) >= 1024 && len(q.heap)*4 <= cap(q.heap) {
		h := make([]heapEntry, len(q.heap), len(q.heap)*2)
		copy(h, q.heap)
		q.heap = h
	}
}
