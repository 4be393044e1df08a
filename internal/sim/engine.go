package sim

import "fmt"

// Simulator is a single-threaded discrete-event scheduler. The zero value
// is ready to use. Simulator is not safe for concurrent use; the fabric
// model is deliberately single-threaded so that runs are deterministic.
type Simulator struct {
	now   Time
	done  uint64 // the slots at now with a seq below done have fired (see Passed)
	last  Time   // the latest ticket's time (see Reserve)
	q     eventQueue
	fired uint64
}

// New returns a ready-to-run Simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return s.q.len() }

// Schedule queues fn to run after delay. A negative delay panics: the past
// is immutable in a discrete-event simulation. Events for the same instant
// run in the order their slots were taken: by Schedule, ScheduleAt,
// ScheduleCall or Reserve, whichever took each one (see Reserve).
func (s *Simulator) Schedule(delay Time, fn func()) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute time at, which must not precede
// the current time.
func (s *Simulator) ScheduleAt(at Time, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	return s.q.push(at, funcHandler(fn), nil, 0)
}

// ScheduleCall queues h.Fire(arg, n) to run after delay, in the same
// (time, scheduling order) sequence as Schedule: the primitive for
// per-packet events, whose target and operands are known without a
// closure (see Handler). A negative delay or nil handler panics.
func (s *Simulator) ScheduleCall(delay Time, h Handler, arg any, n uint64) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	return s.q.push(s.now+delay, h, arg, n)
}

// Reserve takes the next slot in the (time, scheduling order) sequence for
// an event at absolute time at, without queueing anything: the returned
// seq and at are a ticket. ScheduleTicket queues the ticket's event later,
// into that same slot, so it fires exactly where an event scheduled in
// Reserve's place would have; a ticket never scheduled costs nothing, and
// the caller settles it once Passed reports it fired. at must not precede
// the current time.
func (s *Simulator) Reserve(at Time) (seq uint64) {
	if at < s.now {
		panic("sim: reserve before now")
	}
	s.last = max(s.last, at)
	seq = s.q.seq
	s.q.seq++
	return seq
}

// ScheduleTicket queues h.Fire(arg, n) in the slot Reserve gave the ticket
// (at, seq). The ticket must not have passed.
func (s *Simulator) ScheduleTicket(at Time, seq uint64, h Handler, arg any, n uint64) Event {
	if seq >= s.q.seq || s.Passed(at, seq) {
		panic(fmt.Sprintf("sim: ticket (%v, %d) not reserved or already passed", at, seq))
	}
	if h == nil {
		panic("sim: nil event handler")
	}
	return s.q.insert(at, seq, h, arg, n)
}

// Passed reports whether an event in the slot (at, seq) would have fired
// by now: it is earlier than the event firing, or is that event itself,
// or — between runs — the clock has been moved past it by a RunUntil
// deadline or a drained Run.
func (s *Simulator) Passed(at Time, seq uint64) bool {
	return at < s.now || at == s.now && seq < s.done
}

// Cancel removes a pending event so it never fires, reporting whether it
// did. Cancelling an event that already fired, was already cancelled, a
// zero Event, or an event belonging to another scheduler is a no-op
// returning false.
func (s *Simulator) Cancel(e Event) bool { return s.q.cancel(e) }

// Step fires the next event, advancing the clock to it. It returns false
// if no events remain.
func (s *Simulator) Step() bool {
	at, b, ok := s.q.head()
	if ok {
		s.fire(at, b)
	}
	return ok
}

// fire runs the event q.head just found at time at: the first of wheel
// bucket b, or the heap's root when b is -1. It takes the event out,
// moves the wheel's cursor and the clock to at, and calls the handler.
func (s *Simulator) fire(at Time, b int) {
	var sl *eventSlot
	if b >= 0 {
		sl = s.q.wheel.pop(b)
	} else {
		sl = s.q.remove(0)
	}
	sl.index = notQueued
	s.q.wheel.cursor = bucketOf(at)
	s.now, s.done = at, sl.seq+1
	s.fired++
	h, arg, n := sl.h, sl.arg, sl.n
	// Release before firing: the handle is already invalidated, so a
	// callback cancelling its own event is a safe no-op, and the slot is
	// immediately reusable by anything the callback schedules.
	s.q.release(sl)
	s.q.shrink()
	h.Fire(arg, n)
}

// Run fires events until the queue is empty, then leaves the clock at
// the latest reserved ticket if that is later than the last event: where
// the ticket's event would have fired had it been scheduled.
func (s *Simulator) Run() {
	for s.Step() {
	}
	s.now, s.done = max(s.now, s.last), s.q.seq
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline Time) {
	for {
		at, b, ok := s.q.head()
		if !ok || at > deadline {
			break
		}
		s.fire(at, b)
	}
	if s.now <= deadline {
		s.now, s.done = deadline, s.q.seq
	}
}

// Every schedules fn to run now+period, then every period thereafter,
// until the returned cancel function is called. fn may itself call cancel.
func (s *Simulator) Every(period Time, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: non-positive period")
	}
	var ev Event
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = s.Schedule(period, tick)
		}
	}
	ev = s.Schedule(period, tick)
	return func() {
		stopped = true
		s.Cancel(ev)
	}
}
