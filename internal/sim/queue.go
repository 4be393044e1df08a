package sim

import "container/heap"

// slabBlock is the number of event slots carved out per allocation when
// the free list runs dry. One block comfortably covers a switch radix's
// worth of in-flight arrivals, so even short-lived simulators make a
// handful of allocations instead of one per scheduled event.
const slabBlock = 64

// eventSlot is the pooled storage behind an Event handle. Slots cycle
// queue -> fired/cancelled -> free list -> queue; gen increments every
// time a slot leaves the queue, so a stale handle held across that
// transition can never touch the slot's next occupant. owner pins the
// slot to the queue that carved it, so a handle presented to the wrong
// scheduler is refused instead of corrupting a foreign heap.
type eventSlot struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
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

type eventHeap []*eventSlot

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	e := x.(*eventSlot)
	e.index = int32(len(*h))
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// eventQueue is the Simulator's slab-pooled pending-event heap. It
// orders events by (time, seq), numbering pushes itself so that events
// at the same instant fire in the order they were scheduled. The zero
// value is ready to use. Not safe for concurrent use.
type eventQueue struct {
	heap  eventHeap
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
	sl.fn = nil
	q.free = append(q.free, sl)
}

// push queues fn at time at and returns its handle. The caller has
// already validated at against its clock.
func (q *eventQueue) push(at Time, fn func()) Event {
	sl := q.alloc()
	sl.at = at
	sl.seq = q.seq
	q.seq++
	sl.fn = fn
	heap.Push(&q.heap, sl)
	return Event{slot: sl, gen: sl.gen, at: at}
}

// head returns the earliest pending slot without removing it, or nil.
func (q *eventQueue) head() *eventSlot {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// pop removes and returns the earliest pending slot. The caller releases
// it after capturing fn.
func (q *eventQueue) pop() *eventSlot {
	return heap.Pop(&q.heap).(*eventSlot)
}

// cancel removes a pending event, reporting whether it did. Handles that
// already fired, were cancelled, are zero, or belong to another queue
// are refused.
func (q *eventQueue) cancel(e Event) bool {
	sl := e.slot
	if sl == nil || sl.gen != e.gen || sl.index < 0 || sl.owner != q {
		return false
	}
	heap.Remove(&q.heap, int(sl.index))
	q.release(sl)
	return true
}

func (q *eventQueue) len() int { return len(q.heap) }

// shrink gives back the heap slice's slack after a burst drains, so a
// queue that once held tens of thousands of in-flight events does not
// pin that memory for the rest of a long run.
func (q *eventQueue) shrink() {
	if cap(q.heap) >= 1024 && len(q.heap)*4 <= cap(q.heap) {
		h := make(eventHeap, len(q.heap), len(q.heap)*2)
		copy(h, q.heap)
		q.heap = h
	}
}
