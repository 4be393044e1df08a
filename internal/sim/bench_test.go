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
