package sim

import "testing"

// BenchmarkScheduleRunSteady measures the steady-state Schedule->Step
// cycle on a long-lived Simulator — the regime every experiment run
// actually spends its time in, where the event slab should make the
// scheduler allocation-free.
func BenchmarkScheduleRunSteady(b *testing.B) {
	s := New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			s.Schedule(Time(j)*Nanosecond, fn)
		}
		s.Run()
	}
}

// hopMix is a handler that reschedules itself at the fabric's four per-hop
// delays at 64 B — credit return, switch lookup, serialisation, and
// serialisation plus propagation — in turn, so a fixed population of them
// keeps the queue at a small-packet run's depth and delay mix.
type hopMix struct {
	s *Simulator
	i int
}

var hopDelays = [4]Time{20 * Nanosecond, 200 * Nanosecond, 313600, 333600}

func (h *hopMix) Fire(any, uint64) {
	h.i++
	h.s.ScheduleCall(hopDelays[h.i&3], h, nil, 0)
}

// BenchmarkHopMix measures one Step (a pop and a push) with 100 events
// pending at the per-hop delays, the regime of bench's data-64b workload.
func BenchmarkHopMix(b *testing.B) {
	s := New()
	for i := 0; i < 100; i++ {
		h := &hopMix{s: s, i: i * 7}
		s.ScheduleCall(Time(i)*3*Nanosecond, h, nil, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
