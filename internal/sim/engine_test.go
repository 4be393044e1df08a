package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d, want 1000", Nanosecond)
	}
	if Second != 1_000_000_000_000 {
		t.Fatalf("Second = %d ps", Second)
	}
	if got := (2500 * Nanosecond).Microseconds(); got != 2.5 {
		t.Fatalf("Microseconds = %v, want 2.5", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{500, "500ps"},
		{1500, "1.500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	s.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	s.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	s.Run()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-time events out of scheduling order: %v", order)
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	s := New()
	var hits []Time
	s.Schedule(10, func() {
		hits = append(hits, s.Now())
		s.Schedule(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	if !e.Pending() {
		t.Fatal("scheduled event not pending")
	}
	if !s.Cancel(e) {
		t.Fatal("Cancel of a pending event returned false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() {
		t.Fatal("cancelled event still pending")
	}
	// Cancelling twice, cancelling a fired event, and cancelling the zero
	// Event must be harmless no-ops that report false.
	if s.Cancel(e) {
		t.Fatal("second Cancel returned true")
	}
	e2 := s.Schedule(1, func() {})
	s.Run()
	if s.Cancel(e2) {
		t.Fatal("Cancel of a fired event returned true")
	}
	if s.Cancel(Event{}) {
		t.Fatal("Cancel of the zero Event returned true")
	}
}

// Regression test for the old Cancel semantics, where cancelling an
// already-fired event still set its cancelled flag, so Cancelled()
// claimed a callback that actually ran never did. A fired event must
// read as not pending, and a late Cancel must not rewrite history.
func TestCancelAfterFireDoesNotLie(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(5, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Pending() {
		t.Fatal("fired event reports pending")
	}
	if s.Cancel(e) {
		t.Fatal("Cancel claimed to cancel an event that already ran")
	}
	if e.At() != 5 {
		t.Fatalf("At = %v after fire, want 5", e.At())
	}
}

// A handle held across its event's firing must not be able to cancel
// whatever new event gets recycled into the same pooled slot.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	s := New()
	var stale []Event
	for i := 0; i < 10*slabBlock; i++ {
		stale = append(stale, s.Schedule(Time(i), func() {}))
	}
	s.Run()
	// Every slot in the pool has now cycled at least once; fresh events
	// necessarily reuse slots some stale handle still points at.
	fired := 0
	for i := 0; i < 10*slabBlock; i++ {
		s.Schedule(Time(i), func() { fired++ })
	}
	for _, e := range stale {
		if e.Pending() {
			t.Fatal("stale handle reports pending")
		}
		if s.Cancel(e) {
			t.Fatal("stale handle cancelled a recycled slot's event")
		}
	}
	s.Run()
	if fired != 10*slabBlock {
		t.Fatalf("fired %d of %d fresh events", fired, 10*slabBlock)
	}
}

// An event callback cancelling its own (already invalidated) handle must
// be a no-op, even though the slot has returned to the free list.
func TestSelfCancelInsideCallback(t *testing.T) {
	s := New()
	var e Event
	ran := false
	e = s.Schedule(1, func() {
		ran = true
		if s.Cancel(e) {
			t.Error("event cancelled itself while running")
		}
	})
	s.Run()
	if !ran {
		t.Fatal("event did not run")
	}
}

// countHandler is a pointer-typed Handler, the shape fabric's per-packet
// events take: Fire counts calls and sums n.
type countHandler struct{ fired, sum uint64 }

func (h *countHandler) Fire(_ any, n uint64) { h.fired++; h.sum += n }

// Steady-state scheduling on a warmed simulator must not allocate: slots
// come from the free list, the heap slice has capacity, and neither way
// of naming the callback boxes anything — Schedule(fn) converts the func
// value to the func-typed Handler (pointer-shaped, so the interface holds
// it directly) and ScheduleCall takes a pointer handler and pointer arg.
// This is the guard on the queue's zero-alloc claim.
func TestStepZeroAllocSteadyState(t *testing.T) {
	fn := func() {}
	h, arg := &countHandler{}, &struct{ x int }{}
	paths := map[string]func(s *Simulator, i int){
		"Schedule":     func(s *Simulator, i int) { s.Schedule(Time(i)*Nanosecond, fn) },
		"ScheduleAt":   func(s *Simulator, i int) { s.ScheduleAt(s.Now()+Time(i), fn) },
		"ScheduleCall": func(s *Simulator, i int) { s.ScheduleCall(Time(i)*Nanosecond, h, arg, uint64(i)) },
	}
	for name, schedule := range paths {
		s := New()
		for i := 0; i < 4*slabBlock; i++ {
			schedule(s, i)
		}
		s.Run()
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 100; i++ {
				schedule(s, i)
			}
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("steady-state %s/Step allocated %.1f times per cycle, want 0", name, allocs)
		}
	}
	if h.fired == 0 || h.sum == 0 {
		t.Fatalf("ScheduleCall handler saw fired=%d sum=%d", h.fired, h.sum)
	}
}

// ScheduleCall hands the handler exactly the operands it was given, in
// (time, scheduling order) interleaved with Schedule's callbacks.
func TestScheduleCallOrderAndOperands(t *testing.T) {
	s := New()
	var got []uint64
	tok := &struct{ x int }{}
	rec := recHandler{log: &got, want: tok}
	s.ScheduleCall(5, &rec, tok, 1)
	s.Schedule(5, func() { got = append(got, 2) })
	s.ScheduleCall(3, &rec, tok, 0)
	ev := s.ScheduleCall(5, &rec, tok, 99)
	s.ScheduleCall(5, &rec, tok, 3)
	if !ev.Pending() || ev.At() != 5 {
		t.Fatalf("handle: pending=%v at=%v", ev.Pending(), ev.At())
	}
	if !s.Cancel(ev) {
		t.Fatal("could not cancel a ScheduleCall event")
	}
	s.Run()
	for i, n := range got {
		if n != uint64(i) {
			t.Fatalf("fired %v, want 0 1 2 3", got)
		}
	}
	if len(got) != 4 || rec.badArg {
		t.Fatalf("fired %v (badArg=%v), want 0 1 2 3 with the scheduled arg", got, rec.badArg)
	}
}

// recHandler logs n and checks arg is the value scheduled.
type recHandler struct {
	log    *[]uint64
	want   any
	badArg bool
}

func (h *recHandler) Fire(arg any, n uint64) {
	*h.log = append(*h.log, n)
	if arg != h.want {
		h.badArg = true
	}
}

func TestScheduleCallRejectsBadInput(t *testing.T) {
	for name, f := range map[string]func(*Simulator){
		"negative delay": func(s *Simulator) { s.ScheduleCall(-1, &countHandler{}, nil, 0) },
		"nil handler":    func(s *Simulator) { s.ScheduleCall(1, nil, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(New())
		}()
	}
}

// After a large burst of far events drains, the heap slice must give back
// its slack rather than pin peak-burst memory for the rest of the run.
func TestQueueShrinksAfterBurst(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 20000; i++ {
		s.Schedule(wheelLap+Time(i)*Nanosecond, fn)
	}
	if s.q.wheel.n != 0 || cap(s.q.heap) < 20000 {
		t.Fatalf("burst did not grow the far heap: %d on the wheel, heap cap %d", s.q.wheel.n, cap(s.q.heap))
	}
	s.Run()
	// Trickle a small steady load through; the shrink check runs as each
	// event fires.
	for i := 0; i < 10; i++ {
		s.Schedule(Time(i), fn)
	}
	s.Run()
	if cap(s.q.heap) >= 1024 {
		t.Fatalf("queue cap %d after burst drained, want < 1024", cap(s.q.heap))
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	var events []Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.Schedule(Time(i+1)*Nanosecond, func() { got = append(got, i) }))
	}
	for i := 0; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.Run()
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10: %v", len(got), got)
	}
	for _, v := range got {
		if v%2 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		s.Schedule(d*Nanosecond, func() { fired = append(fired, s.Now()) })
	}
	s.RunUntil(12 * Nanosecond)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 12*Nanosecond {
		t.Fatalf("Now = %v, want 12ns", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	s.RunUntil(100 * Nanosecond)
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestEvery(t *testing.T) {
	s := New()
	var ticks []Time
	cancel := s.Every(10*Nanosecond, func() {
		ticks = append(ticks, s.Now())
	})
	s.RunUntil(35 * Nanosecond)
	cancel()
	s.RunUntil(100 * Nanosecond)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, tk := range ticks {
		if want := Time(i+1) * 10 * Nanosecond; tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

func TestEveryCancelInsideCallback(t *testing.T) {
	s := New()
	n := 0
	var cancel func()
	cancel = s.Every(Nanosecond, func() {
		n++
		if n == 5 {
			cancel()
		}
	})
	s.Run()
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for schedule in the past")
		}
	}()
	s.ScheduleAt(5, func() {})
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil fn")
		}
	}()
	New().Schedule(1, nil)
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New()
		var fireTimes []Time
		for _, d := range delays {
			s.Schedule(Time(d)*Nanosecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedules and cancels fires exactly the
// non-cancelled events.
func TestPropertyCancelExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		s := New()
		fired := map[int]bool{}
		var evs []Event
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			i := i
			evs = append(evs, s.Schedule(Time(rng.Intn(1000)), func() { fired[i] = true }))
		}
		cancelled := map[int]bool{}
		for i := 0; i < n/3; i++ {
			k := rng.Intn(n)
			cancelled[k] = true
			s.Cancel(evs[k])
		}
		s.Run()
		for i := 0; i < n; i++ {
			if cancelled[i] && fired[i] {
				t.Fatalf("trial %d: cancelled event %d fired", trial, i)
			}
			if !cancelled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d never fired", trial, i)
			}
		}
	}
}

// scheduleRun is a cold start: a new Simulator takes and fires a hundred
// events, growing its slab and heap from nothing.
func scheduleRun() {
	s := New()
	for j := 0; j < 100; j++ {
		s.Schedule(Time(j)*Nanosecond, func() {})
	}
	s.Run()
}

// TestScheduleRunAllocBudget holds the cold start to the 13 allocations
// measured plus 25%. The steady state — zero — is
// TestStepZeroAllocSteadyState's.
func TestScheduleRunAllocBudget(t *testing.T) {
	const ceiling = 13 * 1.25
	if allocs := testing.AllocsPerRun(100, scheduleRun); allocs > ceiling {
		t.Fatalf("a cold 100-event run allocated %.0f times, ceiling %.0f", allocs, ceiling)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scheduleRun()
	}
}
