package core

import (
	"fmt"
	"runtime"
	"testing"

	"ibasec/internal/sim"
)

// buildConfig is the cluster a k×k Build test assembles: the defaults
// with every node in one partition, so every node pair shares one — the
// most set-up per node pair any configuration asks for.
func buildConfig(k int) Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = k, k
	cfg.NumPartitions = 1
	return cfg
}

func mustBuild(tb testing.TB, cfg Config) *Cluster {
	cl, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return cl
}

// TestBuildScalesWithFabric holds a run's fixed cost linear in the
// fabric: set-up structures are sized once from it, with no per-pair map
// (DESIGN §8, "A run's fixed cost"). Build's allocations per end port at
// 16×16 stay within 1.25× those at 4×4, and its bytes at 16×16 — where a
// map over the 65 280 ordered node pairs cost 11.1 MB — within 5 MB. A
// 4×4 Build's allocations stay within 47, measured under Go 1.24, plus
// 25%: a device's counters live in the device (DESIGN §8, "Counters"),
// and its name in one string the fabric's names share, so one allocation
// per device more exceeds that.
func TestBuildScalesWithFabric(t *testing.T) {
	perPort := func(k int) float64 {
		cfg := buildConfig(k)
		return testing.AllocsPerRun(3, func() { mustBuild(t, cfg) }) / float64(k*k)
	}
	small, large := perPort(4), perPort(16)
	if large > 1.25*small {
		t.Errorf("Build allocates %.2f times per end port at 16x16, %.2f at 4x4: more than 1.25x", large, small)
	}
	const measured4x4 = 47
	if n := small * 16; n > measured4x4*1.25 {
		t.Errorf("a 4x4 Build allocates %.0f times, ceiling %.0f (%d measured + 25%%)", n, measured4x4*1.25, measured4x4)
	}

	cfg := buildConfig(16)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	mustBuild(t, cfg)
	runtime.ReadMemStats(&m1)
	const limit = 5 << 20
	if bytes := m1.TotalAlloc - m0.TotalAlloc; bytes > limit {
		t.Errorf("a 16x16 Build allocates %d bytes, limit %d", bytes, limit)
	} else {
		t.Logf("allocations per end port: %.2f at 4x4, %.2f at 16x16; 16x16 bytes %d", small, large, bytes)
	}
}

// BenchmarkBuild is a profiling entry point for set-up cost at four
// fabric sizes (go test -run '^$' -bench '^BenchmarkBuild$' -benchmem
// -cpuprofile/-memprofile ./internal/core). Host time is bench/'s to
// measure; nothing compares these readings.
func BenchmarkBuild(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			cfg := buildConfig(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustBuild(b, cfg)
			}
		})
	}
}

// BenchmarkStart is the profiling entry point for a run's start: Build
// plus a Simulate of a 10 µs warm-up and as long again of traffic, which
// starts every source, sender, collector and endpoint, at four fabric
// sizes (go test
// -run '^$' -bench '^BenchmarkStart$' -benchmem
// -cpuprofile/-memprofile ./internal/core). Nothing compares these
// readings; TestAllocsPerKind in the root package bounds the
// allocations.
func BenchmarkStart(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("%dx%d", k, k), func(b *testing.B) {
			cfg := buildConfig(k)
			cfg.Warmup = 10 * sim.Microsecond
			cfg.Duration = 2 * cfg.Warmup
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mustBuild(b, cfg).Simulate()
			}
		})
	}
}
