package metrics

import (
	"math"
	"strings"
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
	if c.Get("drops") != 3 || c.Get("traps") != 1 {
		t.Fatalf("counters: %v", c)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "drops" || names[1] != "traps" {
		t.Fatalf("Names = %v", names)
	}
	if c.String() != "drops=3 traps=1" {
		t.Fatalf("String = %q", c.String())
	}
	// A declared name reads zero before its first Inc and stays unlisted.
	if d := NewCounters("jobs_failed"); d.Get("jobs_failed") != 0 || d.String() != "" {
		t.Fatalf("declared, untouched: Get = %d, String = %q", d.Get("jobs_failed"), d.String())
	}
}

// mustPanic fails unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

// A mistyped name fails loudly: a read of a name the set does not
// declare would otherwise print 0 in a CSV column.
func TestCountersMissingNamePanics(t *testing.T) {
	mustPanic(t, `"missing"`, func() { NewCounters("drops").Get("missing") })

	var s Set[testCounter]
	s.Bind(&testCounters, make([]uint64, numTestCounters))
	mustPanic(t, `test counters have no "missing"`, func() { s.Get("missing") })
	mustPanic(t, `test counters have no "missing"`, func() { s.Inc("missing", 1) })
	mustPanic(t, "declare 3 names for 2 cells", func() { s.Bind(&testCounters, make([]uint64, 2)) })
}

type testCounter uint8

const (
	testForwarded testCounter = iota
	testFiltered
	testZero
	numTestCounters
)

var testCounters = Table{Set: "test", Names: []string{
	testForwarded: "forwarded",
	testFiltered:  "filtered",
	testZero:      "zero",
}}

// A typed id and the counter's name address one cell, and a declared
// counter nothing has added to is not listed: a run that never filters a
// packet must still list the names it always did.
func TestSet(t *testing.T) {
	var s Set[testCounter]
	s.Bind(&testCounters, make([]uint64, numTestCounters))
	if names := s.Names(); len(names) != 0 || s.String() != "" || s.Get("filtered") != 0 {
		t.Fatalf("untouched counters are visible: %v %q", names, s.String())
	}
	s.Add(testForwarded, 2)
	s.Inc("forwarded", 3)
	s.Add(testForwarded, 1)
	if got := s.Get("forwarded"); got != 6 || s.Value(testForwarded) != 6 {
		t.Fatalf("id and name disagree: Get = %d, Value = %d, want 6", got, s.Value(testForwarded))
	}
	// Adding zero makes the name exist.
	s.Add(testZero, 0)
	if got, want := s.String(), "forwarded=6 zero=0"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestCheckTable(t *testing.T) {
	if err := CheckTable(&testCounters, numTestCounters); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		names []string
		want  string
	}{
		{[]string{"ok", "fine"}, "2 names for 3 ids"},
		{[]string{"ok", "Not_Snake", "fine"}, `"Not_Snake" is empty, repeated or not snake_case`},
		{[]string{"ok", "", "fine"}, `"" is empty`},
		{[]string{"ok", "fine", "ok"}, `"ok" is empty, repeated`},
	} {
		bad := Table{Set: "bad", Names: tc.names}
		if err := CheckTable(&bad, numTestCounters); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CheckTable(%q) = %v, want an error containing %q", tc.names, err, tc.want)
		}
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
