package sim

import (
	"math/rand"
	"testing"
)

// A wheel bucket's width and a whole lap, as durations.
const (
	wheelBucket = Time(1) << wheelShift
	wheelLap    = wheelSize * wheelBucket
)

// TestWheelLapsMatchReference runs the clock through more than ten laps
// of the wheel while scheduling at delays from zero to past a lap —
// same instant, same bucket, neighbouring buckets, the lap boundary, the
// far heap and the fabric's per-hop delays — and cancelling at random,
// and checks every firing against a reference list: the live events in
// scheduling order, of which the earliest by time fires next.
func TestWheelLapsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	s := New()
	type ref struct {
		id int
		at Time
		ev Event
	}
	var live []ref // in scheduling order
	var fired []int
	nextID, cancels, steps := 0, 0, 0
	delays := []func() Time{
		func() Time { return 0 },
		func() Time { return Time(rng.Intn(int(wheelBucket))) },
		func() Time { return Time(rng.Intn(int(4 * wheelBucket))) },
		func() Time { return wheelLap - wheelBucket + Time(rng.Intn(int(2*wheelBucket))) },
		func() Time { return Time(rng.Int63n(int64(3 * wheelLap))) },
		func() Time { return 20*Nanosecond + Time(rng.Intn(2))*3386*Nanosecond },
	}
	schedule := func() {
		at := s.Now() + delays[rng.Intn(len(delays))]()
		id := nextID
		nextID++
		live = append(live, ref{id, at, s.ScheduleAt(at, func() { fired = append(fired, id) })})
	}
	for s.Now() < 10*wheelLap || steps < 20000 {
		for len(live) < 50 {
			schedule()
		}
		switch r := rng.Intn(10); {
		case r < 4:
			schedule()
		case r < 5:
			k := rng.Intn(len(live))
			if !s.Cancel(live[k].ev) || live[k].ev.Pending() {
				t.Fatalf("could not cancel live event %d", live[k].id)
			}
			live = append(live[:k], live[k+1:]...)
			cancels++
		default:
			want := 0
			for k := range live {
				if live[k].at < live[want].at {
					want = k // strict <: ties fire in scheduling order
				}
			}
			fired = fired[:0]
			s.Step()
			steps++
			if w := live[want]; len(fired) != 1 || fired[0] != w.id || s.Now() != w.at {
				t.Fatalf("step %d at %v fired %v, reference expects event %d at %v", steps, s.Now(), fired, w.id, w.at)
			}
			live = append(live[:want], live[want+1:]...)
		}
		if s.Pending() != len(live) {
			t.Fatalf("Pending() = %d, reference holds %d", s.Pending(), len(live))
		}
	}
	if cancels == 0 {
		t.Fatal("no event was cancelled")
	}
}

// A 20 000-event burst into one bucket fires in (at, seq) order whether
// it arrives earliest-first or latest-first: the bucket's list takes
// both at its ends.
func TestWheelBucketBurstOrder(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name string
		at   func(i int) Time
	}{
		{"ascending", func(i int) Time { return Time(i) * wheelBucket / n }},
		{"descending", func(i int) Time { return Time(n-1-i) * wheelBucket / n }},
	} {
		s := New()
		base := 5 * wheelBucket
		var got []int
		for i := 0; i < n; i++ {
			i := i
			s.ScheduleAt(base+tc.at(i), func() { got = append(got, i) })
		}
		if s.q.wheel.n != n {
			t.Fatalf("%s: %d of %d events on the wheel", tc.name, s.q.wheel.n, n)
		}
		s.Run()
		if len(got) != n {
			t.Fatalf("%s: fired %d of %d", tc.name, len(got), n)
		}
		for k := 1; k < n; k++ {
			a, b := got[k-1], got[k]
			if ta, tb := tc.at(a), tc.at(b); ta > tb || ta == tb && a > b {
				t.Fatalf("%s: event %d (at %v) fired before event %d (at %v)", tc.name, a, ta, b, tb)
			}
		}
	}
}
