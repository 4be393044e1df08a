package workload

import (
	"math/rand"

	"ibasec/internal/sim"
)

// AdmitFunc adapts a function to Admitter.
type AdmitFunc func() bool

// Admit calls f.
func (f AdmitFunc) Admit() bool { return f() }

// Realtime starts a constant-bit-rate source (see StartRealtime); nil
// admit admits every packet.
func Realtime(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, admit func() bool, send SendFunc) *Generator {
	var a Admitter
	if admit != nil {
		a = AdmitFunc(admit)
	}
	g := new(Generator)
	g.StartRealtime(s, rng, rate, size, targets, a, send)
	return g
}

// PoissonMeanCheck is the expected packets for a
// Poisson source over horizon at the given rate and size.
func PoissonMeanCheck(rate float64, size int, horizon sim.Time) float64 {
	perPacket := float64(size*8) / rate // seconds
	return float64(horizon) / float64(sim.Second) / perPacket
}
