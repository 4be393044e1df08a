package sim

import "testing"

// fuzzEvent is the reference model's view of one scheduled event or
// reserved ticket; its index in the model is its slot order.
type fuzzEvent struct {
	at     Time
	ev     Event
	live   bool
	ticket bool   // taken by Reserve
	pushed bool   // a ticket ScheduleTicket has queued
	seq    uint64 // a ticket's slot
}

// fuzzLog is the ScheduleCall target of FuzzEventQueue: it records the
// fired event's id (n) and that arg came back as the log itself.
type fuzzLog struct {
	fired  []int
	badArg bool
}

func (l *fuzzLog) Fire(arg any, n uint64) {
	l.fired = append(l.fired, int(n))
	if arg != any(l) {
		l.badArg = true
	}
}

// fuzzDelay decodes a schedule operand into a delay from now. arg%8
// picks the regime the event lands in, relative to now's wheel bucket,
// which is the cursor's — FuzzEventQueue's clock moves only by Step:
//
//	0 the same instant     4 exactly a lap on: the far heap's nearest
//	1 the same bucket      5 a lap and a bucket on
//	2 the next bucket      6 several laps on
//	3 a lap less a bucket  7 a few buckets on
//
// and arg/8 one of 32 offsets into the target bucket, coarse enough that
// same-instant ties are common in every regime.
func fuzzDelay(now Time, arg byte) Time {
	start := now - now%wheelBucket // now's bucket's first instant
	off := Time(arg>>3) * (wheelBucket / 32)
	var bucket Time // buckets on from now's
	switch arg % 8 {
	case 0:
		return 0
	case 1:
		return off % (start + wheelBucket - now)
	case 2:
		bucket = 1
	case 3:
		bucket = wheelSize - 1
	case 4:
		bucket = wheelSize
	case 5:
		bucket = wheelSize + 1
	case 6:
		bucket = 3 * wheelSize
	case 7:
		bucket = 2 + Time(arg>>3)%4
	}
	return start + bucket*wheelBucket + off - now
}

// FuzzEventQueue drives a Simulator with a byte-coded sequence of
// schedule / schedule-call / cancel / step / reserve / schedule-ticket
// operations and checks it against a reference model — a plain list
// ordered by (time, slot order): every step fires exactly the model's
// earliest live event, Pending() equals the model's live count, a handle
// stops being pending the moment its event fires or is cancelled, a dead
// handle (whose slot may since have been recycled many times) can never
// cancel again, Passed agrees with the model for every ticket, and a
// drained Run leaves the clock at the latest ticket.
//
// Each operation is two bytes: op, operand. op%6 selects 0 Schedule,
// 1 ScheduleCall, 2 Cancel, 3 Step, 4 Reserve (a ticket now) and
// 5 ScheduleTicket (one reserved earlier, later); the operand is a delay
// decoded by fuzzDelay, or the index of the handle to cancel or of the
// ticket to schedule.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 3, 0, 3, 0, 3, 0})             // ties across both primitives
	f.Add([]byte{0, 5, 0, 1, 2, 0, 3, 0, 2, 0, 2, 1, 3, 0, 2, 1}) // cancel live, fired, cancelled
	f.Add([]byte{1, 0, 3, 0, 1, 0, 3, 0, 2, 0, 2, 1})             // stale handle, recycled slot
	f.Add([]byte{4, 0, 0, 0, 4, 0, 1, 0, 5, 3, 5, 0, 3, 0, 3, 0}) // tickets among same-instant ties
	f.Add([]byte{4, 1, 0, 1, 4, 2, 0, 2, 3, 0, 5, 0, 5, 2, 3, 0}) // one ticket passed, one pushed late
	f.Add([]byte{4, 4, 0, 4, 4, 6, 3, 0, 5, 0, 5, 2, 2, 2, 3, 0}) // far tickets into the heap; cancel one
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		log := &fuzzLog{}
		var model []fuzzEvent

		live := func() int {
			n := 0
			for _, m := range model {
				if m.live {
					n++
				}
			}
			return n
		}
		// pos is the slot of the last event fired, -1 before the first.
		pos := -1
		passed := func(id int) bool {
			return pos >= 0 && (model[id].at < model[pos].at || model[id].at == model[pos].at && id <= pos)
		}
		// step fires one event and checks it was the model's earliest.
		step := func() {
			want := -1
			for id, m := range model {
				if m.live && (want < 0 || m.at < model[want].at) {
					want = id // ids ascend in slot order, so strict < keeps ties FIFO
				}
			}
			before := len(log.fired)
			if s.Step() != (want >= 0) {
				t.Fatalf("Step returned %v with %d live events", want < 0, live())
			}
			if want < 0 {
				return
			}
			if len(log.fired) != before+1 || log.fired[before] != want {
				t.Fatalf("step fired %v, model expects event %d", log.fired[before:], want)
			}
			if s.Now() != model[want].at {
				t.Fatalf("clock %v after firing an event due at %v", s.Now(), model[want].at)
			}
			model[want].live = false
			pos = want
		}

		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, ops[i+1]
			switch op {
			case 0, 1:
				id, delay := len(model), fuzzDelay(s.Now(), arg)
				var ev Event
				if op == 0 {
					ev = s.Schedule(delay, func() { log.fired = append(log.fired, id) })
				} else {
					ev = s.ScheduleCall(delay, log, log, uint64(id))
				}
				if !ev.Pending() || ev.At() != s.Now()+delay {
					t.Fatalf("fresh handle: pending=%v at=%v, want at %v", ev.Pending(), ev.At(), s.Now()+delay)
				}
				model = append(model, fuzzEvent{at: s.Now() + delay, ev: ev, live: true})
			case 2:
				if len(model) == 0 {
					continue
				}
				m := &model[int(arg)%len(model)]
				if got := s.Cancel(m.ev); got != m.live {
					t.Fatalf("Cancel returned %v for an event whose live state is %v", got, m.live)
				}
				m.live = false
			case 3:
				step()
			case 4:
				at := s.Now() + fuzzDelay(s.Now(), arg)
				model = append(model, fuzzEvent{at: at, ticket: true, seq: s.Reserve(at)})
			case 5:
				var tickets []int
				for id, m := range model {
					if m.ticket && !m.pushed && !passed(id) {
						tickets = append(tickets, id)
					}
				}
				if len(tickets) == 0 {
					continue
				}
				id := tickets[int(arg)%len(tickets)]
				m := &model[id]
				m.ev = s.ScheduleTicket(m.at, m.seq, log, log, uint64(id))
				if !m.ev.Pending() || m.ev.At() != m.at {
					t.Fatalf("fresh ticket handle: pending=%v at=%v, want at %v", m.ev.Pending(), m.ev.At(), m.at)
				}
				m.pushed, m.live = true, true
			}
			if got, want := s.Pending(), live(); got != want {
				t.Fatalf("after op %d: Pending() = %d, model holds %d", i/2, got, want)
			}
			for id, m := range model {
				if m.ticket && s.Passed(m.at, m.seq) != passed(id) {
					t.Fatalf("after op %d: ticket %d at %v Passed() = %v, model says %v", i/2, id, m.at, !passed(id), passed(id))
				}
			}
			for id, m := range model {
				if m.ev.Pending() != m.live {
					t.Fatalf("after op %d: event %d Pending() = %v, model says %v", i/2, id, m.ev.Pending(), m.live)
				}
			}
		}
		for live() > 0 {
			step()
		}
		if s.Step() || s.Pending() != 0 {
			t.Fatal("queue not empty after the model drained")
		}
		end := s.Now()
		for _, m := range model {
			if m.ticket {
				end = max(end, m.at) // pushed or not
			}
		}
		if s.Run(); s.Now() != end {
			t.Fatalf("drained Run left the clock at %v, want the latest ticket's %v", s.Now(), end)
		}
		for id, m := range model {
			if m.ticket && !s.Passed(m.at, m.seq) {
				t.Fatalf("ticket %d at %v not passed after a drained Run", id, m.at)
			}
		}
		for id, m := range model {
			if m.ev.Pending() || s.Cancel(m.ev) {
				t.Fatalf("event %d: dead handle still pending or cancellable", id)
			}
		}
		if log.badArg {
			t.Fatal("ScheduleCall handler received a different arg than scheduled")
		}
	})
}
