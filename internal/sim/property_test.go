package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPropertyHeapTotalOrder drives the event queue with a long random
// mix of schedules, cancels and reschedules, then checks the surviving
// events fire in exactly (time, schedule-sequence) order against a
// model kept as a plain sorted slice.
func TestPropertyHeapTotalOrder(t *testing.T) {
	type rec struct {
		at  Time
		seq int // model-side schedule order
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		s := New()
		var fired []rec
		var model []rec
		handles := make(map[int]Event) // seq -> live handle
		seq := 0

		schedule := func(at Time) {
			id := seq
			seq++
			handles[id] = s.ScheduleAt(at, func() { fired = append(fired, rec{at, id}) })
			model = append(model, rec{at, id})
		}
		// Clustered times force heavy same-instant tie-breaking.
		for i := 0; i < 400; i++ {
			schedule(Time(rng.Intn(50)))
		}
		for i := 0; i < 600; i++ {
			switch rng.Intn(3) {
			case 0:
				schedule(Time(rng.Intn(50)))
			case 1: // cancel a random live event
				for id, ev := range handles {
					if s.Cancel(ev) {
						for j, m := range model {
							if m.seq == id {
								model = append(model[:j], model[j+1:]...)
								break
							}
						}
					}
					delete(handles, id)
					break
				}
			case 2: // reschedule: cancel + fresh schedule at a new time
				for id, ev := range handles {
					if s.Cancel(ev) {
						for j, m := range model {
							if m.seq == id {
								model = append(model[:j], model[j+1:]...)
								break
							}
						}
						schedule(Time(rng.Intn(50)))
					}
					delete(handles, id)
					break
				}
			}
		}
		s.Run()

		sort.SliceStable(model, func(i, j int) bool {
			if model[i].at != model[j].at {
				return model[i].at < model[j].at
			}
			return model[i].seq < model[j].seq
		})
		if len(fired) != len(model) {
			t.Fatalf("trial %d: fired %d events, model has %d", trial, len(fired), len(model))
		}
		for i := range fired {
			if fired[i] != model[i] {
				t.Fatalf("trial %d: commit %d fired %+v, model expects %+v", trial, i, fired[i], model[i])
			}
		}
	}
}

// TestPropertySlabGenerations checks the slab's generation discipline
// under random churn: a handle that fired or was cancelled must report
// Pending false and refuse Cancel forever, even after its slot has been
// recycled arbitrarily many times.
func TestPropertySlabGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	type dead struct {
		ev   Event
		slot *eventSlot
		gen  uint64
	}
	var graveyard []dead
	live := map[*eventSlot]Event{}

	for round := 0; round < 2000; round++ {
		switch rng.Intn(3) {
		case 0, 1:
			ev := s.Schedule(Time(rng.Intn(10)), func() {})
			live[ev.slot] = ev
		case 2:
			for slot, ev := range live {
				if !s.Cancel(ev) {
					t.Fatalf("round %d: live handle refused cancel", round)
				}
				graveyard = append(graveyard, dead{ev, slot, ev.gen})
				delete(live, slot)
				break
			}
		}
		if rng.Intn(10) == 0 {
			// Drain everything; all live handles die by firing.
			s.Run()
			for slot, ev := range live {
				graveyard = append(graveyard, dead{ev, slot, ev.gen})
				delete(live, slot)
			}
		}
		// Every dead handle must stay dead: its slot either sits free or
		// has been recycled under a bumped generation.
		for _, d := range graveyard {
			if d.ev.Pending() {
				t.Fatalf("round %d: dead handle reports pending", round)
			}
			if s.Cancel(d.ev) {
				t.Fatalf("round %d: dead handle cancelled something", round)
			}
			if d.slot.index != notQueued && d.slot.gen == d.gen {
				t.Fatalf("round %d: slot recycled without a generation bump", round)
			}
		}
		if len(graveyard) > 512 {
			graveyard = graveyard[len(graveyard)-512:]
		}
	}
}

// TestPropertyPendingMatchesQueue cross-checks Pending against the
// queue's actual contents after random schedule/cancel churn.
func TestPropertyPendingMatchesQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New()
	events := map[int]Event{}
	cancelled := map[int]bool{}
	for i := 0; i < 500; i++ {
		events[i] = s.Schedule(Time(rng.Intn(100)), func() {})
	}
	for i := 0; i < 250; i++ {
		id := rng.Intn(500)
		if !cancelled[id] {
			s.Cancel(events[id])
			cancelled[id] = true
		}
	}
	pending := 0
	for id, ev := range events {
		if ev.Pending() != !cancelled[id] {
			t.Fatalf("event %d: Pending=%v cancelled=%v", id, ev.Pending(), cancelled[id])
		}
		if ev.Pending() {
			pending++
		}
	}
	if got := s.Pending(); got != pending {
		t.Fatalf("queue holds %d events, handles say %d", got, pending)
	}
}

// TestZeroValues pins the zero-value behaviour of the exported types: a
// zero Event is inert (never pending, cancel is a no-op returning
// false), and a zero Simulator is directly usable — its queue
// lazily initializes on first schedule.
func TestZeroValues(t *testing.T) {
	var ev Event
	if ev.Pending() {
		t.Fatal("zero Event pending")
	}
	if ev.At() != 0 {
		t.Fatal("zero Event has a fire time")
	}

	var s Simulator
	if s.Cancel(ev) {
		t.Fatal("zero Simulator cancelled a zero Event")
	}
	if s.Now() != 0 || s.Pending() != 0 || s.Fired() != 0 {
		t.Fatal("zero Simulator not at origin")
	}
	ran := false
	s.Schedule(5, func() { ran = true })
	s.Run()
	if !ran || s.Now() != 5 || s.Fired() != 1 {
		t.Fatalf("zero Simulator run: ran=%v now=%v fired=%d", ran, s.Now(), s.Fired())
	}
	// Run on an empty, never-scheduled zero Simulator must return
	// immediately.
	var idle Simulator
	idle.Run()
	if idle.Fired() != 0 {
		t.Fatal("idle zero Simulator fired events")
	}
}

// TestCancelForeignSimulatorRefused checks that one simulator's queue
// refuses a handle minted by another, even when slot addresses and
// generations would otherwise line up.
func TestCancelForeignSimulatorRefused(t *testing.T) {
	a, b := New(), New()
	ea := a.Schedule(1, func() {})
	if b.Cancel(ea) {
		t.Fatal("simulator b cancelled simulator a's event")
	}
	if !ea.Pending() {
		t.Fatal("foreign cancel attempt killed the event")
	}
	if !a.Cancel(ea) {
		t.Fatal("owner could not cancel its own event")
	}
}
