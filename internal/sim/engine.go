package sim

import "fmt"

// Simulator is a single-threaded discrete-event scheduler. The zero value
// is ready to use. Simulator is not safe for concurrent use; the fabric
// model is deliberately single-threaded so that runs are deterministic.
type Simulator struct {
	now     Time
	q       eventQueue
	fired   uint64
	stopped bool
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
// is immutable in a discrete-event simulation. Events scheduled for the
// same instant run in the order they were scheduled.
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
	s.now = at
	s.fired++
	h, arg, n := sl.h, sl.arg, sl.n
	// Release before firing: the handle is already invalidated, so a
	// callback cancelling its own event is a safe no-op, and the slot is
	// immediately reusable by anything the callback schedules.
	s.q.release(sl)
	s.q.shrink()
	h.Fire(arg, n)
}

// Run fires events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		at, b, ok := s.q.head()
		if !ok || at > deadline {
			break
		}
		s.fire(at, b)
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// Stop makes the innermost Run or RunUntil return after the current event.
func (s *Simulator) Stop() { s.stopped = true }

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
