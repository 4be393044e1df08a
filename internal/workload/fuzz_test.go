package workload

import (
	"math/rand"
	"testing"

	"ibasec/internal/sim"
)

// refGenerator, refRealtime and refBestEffort are the closure-built
// sources the typed Generator replaced, kept as FuzzSources' reference.
type refGenerator struct {
	stop     func()
	stopped  bool
	Sent     uint64
	Withheld uint64
}

func (g *refGenerator) Stop() {
	if !g.stopped && g.stop != nil {
		g.stopped = true
		g.stop()
	}
}

func refRealtime(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, admit func() bool, send SendFunc) *refGenerator {
	interval := sim.Time(float64(size*8) / rate * 1e12)
	if interval <= 0 {
		interval = 1
	}
	g := &refGenerator{}
	stopped := false
	tick := func() {
		if admit != nil && !admit() {
			g.Withheld++
			return
		}
		g.Sent++
		send(targets[rng.Intn(len(targets))], size)
	}
	phase := sim.Time(rng.Int63n(int64(interval))) + 1
	var cancelEvery func()
	s.Schedule(phase, func() {
		if stopped {
			return
		}
		tick()
		cancelEvery = s.Every(interval, tick)
	})
	g.stop = func() {
		stopped = true
		if cancelEvery != nil {
			cancelEvery()
		}
	}
	return g
}

func refBestEffort(s *sim.Simulator, rng *rand.Rand, rate float64, size int, targets []int, send SendFunc) *refGenerator {
	mean := float64(size*8) / rate * 1e12
	g := &refGenerator{}
	stopped := false
	var arrive func()
	arm := func() {
		d := sim.Time(rng.ExpFloat64() * mean)
		if d < 1 {
			d = 1
		}
		s.Schedule(d, arrive)
	}
	arrive = func() {
		if stopped {
			return
		}
		g.Sent++
		send(targets[rng.Intn(len(targets))], size)
		arm()
	}
	arm()
	g.stop = func() { stopped = true }
	return g
}

// countingSource counts the draws a rand.Rand makes from it.
type countingSource struct {
	src   rand.Source64
	draws int
}

func (c *countingSource) Int63() int64    { c.draws++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.draws++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// sourceRun is what one side of FuzzSources observed.
type sourceRun struct {
	sends              []sourceSend
	sent, withheld     [2]uint64
	draws              int
	fired              uint64
	pending            int
	rtStarted, beStart bool
}

type sourceSend struct {
	at       sim.Time
	dst, src int // src: 0 realtime, 1 best effort; 2 and 3 their echoes
}

// FuzzSources holds the typed sources to the closure-built ones they
// replaced: a realtime and a best-effort source sharing one RNG, as a
// run's do, at fuzzed rates, sizes, target sets, seeds, admission
// patterns and stop times must send the same (time, destination)
// sequence, interleaved the same with events their sends schedule,
// withhold the same packets, draw the RNG as often and fire as many
// events — including those still queued when they stop.
func FuzzSources(f *testing.F) {
	f.Add(int64(1), uint32(1e6), uint32(100e6), uint16(125), uint8(3), uint8(0), uint32(10_000_000))
	f.Add(int64(7), uint32(2.5e9), uint32(7.5e8), uint16(64), uint8(15), uint8(3), uint32(40_000_000))
	f.Add(int64(-3), uint32(1), uint32(0), uint16(1024), uint8(1), uint8(2), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, rtRate, beRate uint32, size uint16, nTargets, admitEvery uint8, stopPS uint32) {
		sz := int(size)%1024 + 1
		targets := make([]int, int(nTargets)%16+1)
		for i := range targets {
			targets[i] = (i*7 + int(seed&0xF)) % 64
		}
		stop := sim.Time(stopPS % 100_000_000) // at most 100 µs
		run := func(typed bool) sourceRun {
			var r sourceRun
			s := sim.New()
			cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
			rng := rand.New(cs)
			calls := 0
			var admit func() bool
			if admitEvery > 0 {
				admit = func() bool { calls++; return calls%(int(admitEvery)+1) != 0 }
			}
			// Each send schedules an echo, as a real sender schedules its
			// packet's events, one realtime period on: it ties with the
			// source's next tick, so the order the two took their slots
			// in shows in the log.
			echo := sim.Time(1)
			if rtRate > 0 {
				echo = max(sim.Time(float64(sz*8)/float64(rtRate)*1e12), 1)
			}
			send := func(src int) SendFunc {
				return func(dst, n int) {
					if n != sz {
						t.Fatalf("sent %d bytes, want %d", n, sz)
					}
					r.sends = append(r.sends, sourceSend{s.Now(), dst, src})
					s.Schedule(echo, func() { r.sends = append(r.sends, sourceSend{s.Now(), dst, src + 2}) })
				}
			}
			var stops []func()
			var counts []func() (uint64, uint64)
			if rtRate > 0 {
				if typed {
					g := Realtime(s, rng, float64(rtRate), sz, targets, admit, send(0))
					stops, counts = append(stops, g.Stop), append(counts, func() (uint64, uint64) { return g.Sent, g.Withheld })
				} else {
					g := refRealtime(s, rng, float64(rtRate), sz, targets, admit, send(0))
					stops, counts = append(stops, g.Stop), append(counts, func() (uint64, uint64) { return g.Sent, g.Withheld })
				}
			}
			if beRate > 0 {
				if typed {
					g := BestEffort(s, rng, float64(beRate), sz, targets, send(1))
					stops, counts = append(stops, g.Stop), append(counts, func() (uint64, uint64) { return g.Sent, g.Withheld })
				} else {
					g := refBestEffort(s, rng, float64(beRate), sz, targets, send(1))
					stops, counts = append(stops, g.Stop), append(counts, func() (uint64, uint64) { return g.Sent, g.Withheld })
				}
			}
			s.RunUntil(stop)
			for _, st := range stops {
				st()
			}
			r.pending = s.Pending()
			s.Run()
			for i, c := range counts {
				r.sent[i], r.withheld[i] = c()
			}
			r.draws, r.fired = cs.draws, s.Fired()
			return r
		}
		want, got := run(false), run(true)
		if len(got.sends) != len(want.sends) {
			t.Fatalf("%d sends, reference %d", len(got.sends), len(want.sends))
		}
		for i := range want.sends {
			if got.sends[i] != want.sends[i] {
				t.Fatalf("send %d: %+v, reference %+v", i, got.sends[i], want.sends[i])
			}
		}
		if got.sent != want.sent || got.withheld != want.withheld {
			t.Fatalf("sent %v withheld %v, reference sent %v withheld %v", got.sent, got.withheld, want.sent, want.withheld)
		}
		if got.draws != want.draws {
			t.Fatalf("%d RNG draws, reference %d", got.draws, want.draws)
		}
		if got.fired != want.fired || got.pending != want.pending {
			t.Fatalf("fired %d (pending %d at stop), reference %d (%d)", got.fired, got.pending, want.fired, want.pending)
		}
	})
}
