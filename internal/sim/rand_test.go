package sim

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randDraw is one call on a *rand.Rand, rendered so two generators'
// results can be compared.
type randDraw struct {
	name string
	draw func(r *rand.Rand) any
}

// randDraws covers every method core, faults, transport and the keys
// they feed call on a generator, plus the source-level Int63/Uint64.
var randDraws = []randDraw{
	{"Int63", func(r *rand.Rand) any { return r.Int63() }},
	{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
	{"Uint32", func(r *rand.Rand) any { return r.Uint32() }},
	{"Int63n", func(r *rand.Rand) any { return r.Int63n(1e12 + 39) }},
	{"Intn", func(r *rand.Rand) any { return r.Intn(1000) }},
	{"IntnLarge", func(r *rand.Rand) any { return r.Intn(1 << 40) }},
	{"Float64", func(r *rand.Rand) any { return r.Float64() }},
	{"ExpFloat64", func(r *rand.Rand) any { return r.ExpFloat64() }},
	{"NormFloat64", func(r *rand.Rand) any { return r.NormFloat64() }},
	{"Perm", func(r *rand.Rand) any { return r.Perm(17) }},
	{"Read", func(r *rand.Rand) any {
		b := make([]byte, 13)
		r.Read(b)
		return b
	}},
}

// sameDraw reports whether two draws are equal, byte slices and
// permutations element by element.
func sameDraw(a, b any) bool {
	switch a := a.(type) {
	case []byte:
		return bytes.Equal(a, b.([]byte))
	case []int:
		return slices.Equal(a, b.([]int))
	}
	return a == b
}

var randEdgeSeeds = []int64{
	0, 1, -1, 2, 7, 42,
	89482311, // what math/rand substitutes for a zero seed
	lcgM - 1, lcgM, lcgM + 1, 2 * lcgM, -lcgM, -lcgM - 1,
	1 << 31, 1 << 32, 1<<62 + 12345,
	math.MaxInt32, math.MinInt32,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	0x7AFF1C, 0xBE4, 0x5B117B, 0x5EC0DE, 0x0FA17, 0xC4A05, // core's and faults' stream salts
	1 ^ 0x7AFF1C, 7 ^ 0x5EC0DE,
}

// TestNewRandMatchesMathRand runs each method, alone and interleaved
// with the others, on NewRand and on math/rand's own seeded source,
// for edge seeds: zero, negatives, multiples of 2³¹−1, the int64 ends.
// The draws cross the register's 607-word wrap several times.
func TestNewRandMatchesMathRand(t *testing.T) {
	const draws = 1500
	for _, seed := range randEdgeSeeds {
		for _, d := range randDraws {
			got, want := NewRand(seed), rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if g, w := d.draw(got), d.draw(want); !sameDraw(g, w) {
					t.Fatalf("seed %d, %s draw %d: got %v, want %v", seed, d.name, i, g, w)
				}
			}
		}
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < draws; i++ {
			d := randDraws[i%len(randDraws)]
			if g, w := d.draw(got), d.draw(want); !sameDraw(g, w) {
				t.Fatalf("seed %d, interleaved draw %d (%s): got %v, want %v", seed, i, d.name, g, w)
			}
		}
	}
}

// TestNewRandReseed checks that Seed, called again through the Rand,
// restarts the stream as math/rand's does.
func TestNewRandReseed(t *testing.T) {
	got, want := NewRand(3), rand.New(rand.NewSource(3))
	got.Int63()
	got.Seed(-5)
	want.Seed(-5)
	for i := 0; i < 2*rngLen; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after reseed: got %d, want %d", i, g, w)
		}
	}
}

// FuzzNewRand compares n draws, cycling through every method, from
// NewRand(seed) and from rand.New(rand.NewSource(seed)).
func FuzzNewRand(f *testing.F) {
	for _, seed := range randEdgeSeeds {
		f.Add(seed, uint16(2*rngLen))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			d := randDraws[i%len(randDraws)]
			if g, w := d.draw(got), d.draw(want); !sameDraw(g, w) {
				t.Fatalf("seed %d, draw %d (%s): got %v, want %v", seed, i, d.name, g, w)
			}
		}
	})
}

// BenchmarkNewRand and BenchmarkMathRandNewSource time one seeded
// generator each way, allocations included.
func BenchmarkNewRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = NewRand(int64(i))
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randSink = rand.New(rand.NewSource(int64(i)))
	}
}

var randSink *rand.Rand
