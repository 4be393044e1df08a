package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 || w.N() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Unbiased sample variance of that classic set is 32/7.
	if !almost(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordSingleSample(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("variance of one sample must be 0")
	}
	if w.Min() != 3.5 || w.Max() != 3.5 {
		t.Fatal("min/max of one sample")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestPropertyWelfordMatchesNaive(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 16.0
		}
		var w Welford
		sum := 0.0
		for _, x := range xs {
			w.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		varNaive := ss / float64(len(xs)-1)
		return almost(w.Mean(), mean, 1e-6) && almost(w.Variance(), varNaive, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestPropertyWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n1, n2 := rng.Intn(50), rng.Intn(50)
		var a, b, all Welford
		for i := 0; i < n1; i++ {
			x := rng.NormFloat64()*10 + 50
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < n2; i++ {
			x := rng.NormFloat64()*3 - 20
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			t.Fatalf("merged N = %d, want %d", a.N(), all.N())
		}
		if all.N() > 0 && !almost(a.Mean(), all.Mean(), 1e-9) {
			t.Fatalf("merged mean %v, want %v", a.Mean(), all.Mean())
		}
		if all.N() > 1 && !almost(a.Variance(), all.Variance(), 1e-7) {
			t.Fatalf("merged var %v, want %v", a.Variance(), all.Variance())
		}
		if a.Min() != all.Min() || a.Max() != all.Max() {
			t.Fatal("merged min/max mismatch")
		}
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Merge(&b) // merging empty: no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed N")
	}
	b.Merge(&a) // merging into empty: copy
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty lost data")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	h.Add(-5)
	h.Add(1000)
	if h.N() != 102 {
		t.Fatalf("N = %d", h.N())
	}
	for i := 0; i < 10; i++ {
		if h.Bucket(i) != 10 {
			t.Fatalf("bucket %d = %d, want 10", i, h.Bucket(i))
		}
	}
	u, o := h.OutOfRange()
	if u != 1 || o != 1 {
		t.Fatalf("out of range = %d,%d", u, o)
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 60 {
		t.Fatalf("median = %v", med)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramTopEdge(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	h.Add(math.Nextafter(1, 0)) // just below hi must not panic
	if h.Bucket(2) != 1 {
		t.Fatal("top-edge sample lost")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("drops", 1)
	c.Inc("drops", 2)
	c.Inc("traps", 1)
	if c.Get("drops") != 3 || c.Get("traps") != 1 || c.Get("missing") != 0 {
		t.Fatalf("counters: %v", c)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "drops" || names[1] != "traps" {
		t.Fatalf("Names = %v", names)
	}
	if c.String() != "drops=3 traps=1" {
		t.Fatalf("String = %q", c.String())
	}
}

// A Counter handle and the counter's name address one cell, and merely
// resolving a handle adds no name: a device resolves its per-packet
// counters at construction, and a run that never forwards a packet must
// still list the names it always did.
func TestCounterHandle(t *testing.T) {
	c := NewCounters()
	fwd := c.Counter("forwarded")
	idle := c.Counter("filtered")
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("resolved-but-untouched handles appear in Names: %v", names)
	}
	if c.String() != "" || c.Get("filtered") != 0 {
		t.Fatalf("untouched handle is visible: %q", c.String())
	}

	fwd.Add(2)
	c.Inc("forwarded", 3)
	fwd.Add(1)
	if got := c.Get("forwarded"); got != 6 {
		t.Fatalf("handle and name disagree: Get = %d, want 6", got)
	}
	if c.Counter("forwarded") != fwd {
		t.Fatal("resolving a name twice returned different handles")
	}
	if names := c.Names(); len(names) != 1 || names[0] != "forwarded" {
		t.Fatalf("Names = %v, want [forwarded]", names)
	}

	// Like Inc(name, 0), adding zero makes the name exist.
	idle.Add(0)
	c.Inc("zero_by_name", 0)
	// A handle resolved after the name was counted continues the count.
	c.Inc("late", 4)
	c.Counter("late").Add(1)
	if got, want := c.String(), "filtered=0 forwarded=6 late=5 zero_by_name=0"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestLatencySplit(t *testing.T) {
	var l LatencySplit
	l.AddSample(5, 20)
	l.AddSample(7, 22)
	if !almost(l.Queuing.Mean(), 6, 1e-12) || !almost(l.Network.Mean(), 21, 1e-12) {
		t.Fatalf("split means: %v / %v", l.Queuing.Mean(), l.Network.Mean())
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
}
