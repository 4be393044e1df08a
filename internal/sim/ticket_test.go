package sim

import (
	"slices"
	"testing"
)

// labels is a ScheduleCall and ScheduleTicket target recording n.
type labels []uint64

func (l *labels) Fire(_ any, n uint64) { *l = append(*l, n) }

// Tickets pushed after ordinary events have filled their wheel bucket,
// after an ordinary event at the same far time went to the heap, and
// after the cursor has moved close enough that a slot reserved in heap
// range now lands on the wheel, all fire in (at, seq) order among the
// ordinary events — exactly where events scheduled in the reservations'
// places would have. Labels are slot numbers.
func TestTicketsFireInSlotOrder(t *testing.T) {
	s := New()
	var got labels
	step := 3 * wheelBucket
	near := wheelLap + 2*wheelBucket // heap range at time 0, wheel range from step on
	far := 3*wheelLap + 100
	call := func(at Time, label uint64) { s.ScheduleCall(at-s.Now(), &got, nil, label) }
	type ticket struct {
		at  Time
		seq uint64
	}
	var tickets []ticket
	reserve := func(at Time) { tickets = append(tickets, ticket{at, s.Reserve(at)}) }
	push := func(tk ticket) {
		if ev := s.ScheduleTicket(tk.at, tk.seq, &got, nil, tk.seq); !ev.Pending() || ev.At() != tk.at {
			t.Fatalf("ticket handle: pending %v at %v, want pending at %v", ev.Pending(), ev.At(), tk.at)
		}
	}

	call(100, 0)
	reserve(100) // 1
	call(100, 2)
	reserve(50) // 3
	call(50, 4)
	reserve(far) // 5
	call(far, 6)
	call(far, 7)
	reserve(far)  // 8
	reserve(near) // 9
	call(near, 10)
	call(step, 11)
	for _, tk := range tickets[:4] {
		push(tk)
	}
	for s.Now() < step {
		s.Step()
	}
	push(tickets[4])
	s.Run()
	if want := (labels{3, 4, 0, 1, 2, 11, 9, 10, 5, 6, 7, 8}); !slices.Equal(got, want) {
		t.Fatalf("fired %v, want slot order %v", got, want)
	}
}

// Passed tracks the engine's position through Step, an event's own
// firing, RunUntil (up to and including its deadline) and a drained
// Run; a ticket reserved between runs at the current instant has not
// passed.
func TestPassedAcrossRuns(t *testing.T) {
	s := New()
	var inside []bool
	r0 := s.Reserve(10)
	s.ScheduleAt(10, func() { inside = append(inside, s.Passed(10, 1), s.Passed(10, 2)) }) // slot 1
	r2 := s.Reserve(10)
	s.ScheduleAt(20, func() {}) // slot 3
	r4 := s.Reserve(20)
	r5 := s.Reserve(40)
	check := func(when string, at Time, seq uint64, want bool) {
		t.Helper()
		if got := s.Passed(at, seq); got != want {
			t.Fatalf("%s: Passed(%v, %d) = %v, want %v", when, at, seq, got, want)
		}
	}
	check("before any step", 10, r0, false)
	s.Step()
	if !slices.Equal(inside, []bool{true, false}) {
		t.Fatalf("inside the event at slot 1: Passed(own slot), Passed(next) = %v, want [true false]", inside)
	}
	check("after Step", 10, r0, true)
	check("after Step", 10, r2, false)
	r6 := s.Reserve(15) // at the deadline, with no event there
	s.RunUntil(15)
	check("after RunUntil(15)", 10, r2, true)
	check("after RunUntil(15)", 15, r6, true)
	check("after RunUntil(15)", 20, r4, false)
	s.Step() // the event at 20, slot 3
	check("after Step at 20", 20, 3, true)
	check("after Step at 20", 20, r4, false)
	if s.Now() != 20 {
		t.Fatalf("Step left the clock at %v, want 20", s.Now())
	}
	r7 := s.Reserve(s.Now())
	check("reserved between runs", 20, r7, false)
	s.RunUntil(30)
	check("after RunUntil(30)", 20, r7, true)
	check("after RunUntil(30)", 40, r5, false)
	s.Run()
	if s.Now() != 40 {
		t.Fatalf("drained Run left the clock at %v, want the latest ticket's 40", s.Now())
	}
	check("after a drained Run", 40, r5, true)
}

// A drained Run ends the clock at the latest ticket, pushed or not,
// when that is later than the last event, and otherwise at the last
// event; RunUntil stops at its deadline whatever is reserved beyond it.
func TestDrainedRunEndsAtLatestTicket(t *testing.T) {
	s := New()
	s.Reserve(70)
	s.Reserve(50)
	s.ScheduleAt(10, func() {})
	s.RunUntil(30)
	if s.Now() != 30 {
		t.Fatalf("RunUntil(30) left the clock at %v", s.Now())
	}
	s.Run()
	if s.Now() != 70 {
		t.Fatalf("drained Run left the clock at %v, want 70", s.Now())
	}
	s.ScheduleAt(90, func() {})
	s.Run()
	if s.Now() != 90 {
		t.Fatalf("drained Run left the clock at %v, want the last event's 90", s.Now())
	}
}

func TestScheduleTicketRejectsPassedSlot(t *testing.T) {
	s := New()
	seq := s.Reserve(10)
	s.ScheduleAt(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling a ticket whose slot has passed")
		}
	}()
	s.ScheduleTicket(10, seq, &labels{}, nil, 0)
}
