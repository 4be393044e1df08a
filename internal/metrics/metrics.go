// Package metrics provides the statistics collectors used by the IBA
// simulator: streaming mean/standard-deviation (Welford's algorithm),
// fixed-bucket histograms, and named counter sets. The paper reports mean
// queuing delay, mean network latency, and their standard deviations
// (sections 3.2 and 6), all of which come from these collectors.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// Welford accumulates a running mean and variance without storing samples.
// The zero value is an empty accumulator.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one sample.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples recorded.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no samples.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest sample, or 0 with no samples.
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest sample, or 0 with no samples.
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Merge folds other into w, as if every sample of other had been Added.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n1, n2 := float64(w.n), float64(other.n)
	d := other.mean - w.mean
	tot := n1 + n2
	w.mean += d * n2 / tot
	w.m2 += other.m2 + d*d*n1*n2/tot
	w.n += other.n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f",
		w.n, w.Mean(), w.StdDev(), w.Min(), w.Max())
}

// Histogram counts samples into equal-width buckets over [lo, hi); samples
// outside the range land in underflow/overflow counters.
type Histogram struct {
	lo, hi    float64
	buckets   []uint64
	underflow uint64
	overflow  uint64
	n         uint64
}

// NewHistogram returns a histogram with nbuckets equal-width buckets
// spanning [lo, hi).
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if !(hi > lo) || nbuckets <= 0 {
		panic("metrics: invalid histogram bounds")
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]uint64, nbuckets)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.underflow++
	case x >= h.hi:
		h.overflow++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.buckets)))
		if i == len(h.buckets) { // guard FP rounding at the top edge
			i--
		}
		h.buckets[i]++
	}
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) assuming
// uniform density within buckets. Out-of-range samples clamp to the edges.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := float64(h.underflow)
	if target <= cum {
		return h.lo
	}
	width := (h.hi - h.lo) / float64(len(h.buckets))
	for i, c := range h.buckets {
		if cum+float64(c) >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*width
		}
		cum += float64(c)
	}
	return h.hi
}

// Table declares one kind of owner's counters: the set's name, which a
// misnamed read's panic names, and each counter's name, indexed by the
// owner's typed counter id.
type Table struct {
	Set   string
	Names []string
}

// live is a cell's top bit: it records that the cell has been added to,
// so a declared counter nothing has touched stays out of Names and
// String, and one touched by a zero add shows up.
const live = 1 << 63

// Counters is a set of monotonic counters, one uint64 cell per name of
// its Table. Devices and planes use it through a Set, which addresses the
// cells by typed id. Like everything a simulation run owns, a set belongs
// to one goroutine and takes no lock; the runner's pool, the one set
// shared across goroutines, serialises its own updates.
type Counters struct {
	t *Table
	v []uint64
	// grows marks a set made by NewCounters, whose table gains a name at
	// the first Inc of it.
	grows bool
}

// NewCounters returns a set declaring names whose table grows: Inc of a
// name it lacks adds the name.
func NewCounters(names ...string) *Counters {
	return &Counters{t: &Table{Set: "by-name", Names: names}, v: make([]uint64, len(names)), grows: true}
}

// index returns name's cell, or -1.
func (c *Counters) index(name string) int {
	for i, n := range c.t.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// must returns name's cell, panicking if the set does not declare it: a
// mistyped name fails loudly instead of reading zero.
func (c *Counters) must(name string) int {
	i := c.index(name)
	if i < 0 {
		panic(fmt.Sprintf("metrics: %s counters have no %q", c.t.Set, name))
	}
	return i
}

// Inc adds delta to the named counter. A set made by NewCounters gains
// the name if it lacks it; any other set panics.
func (c *Counters) Inc(name string, delta uint64) {
	if c.grows && c.index(name) < 0 {
		c.t.Names = append(c.t.Names, name)
		c.v = append(c.v, 0)
	}
	i := c.must(name)
	c.v[i] = (c.v[i] + delta) | live
}

// Get returns the named counter's value. It panics if the set does not
// declare name.
func (c *Counters) Get(name string) uint64 { return c.v[c.must(name)] &^ live }

// Names returns the names of all counters added to so far, in sorted
// order.
func (c *Counters) Names() []string {
	var names []string
	for i, n := range c.t.Names {
		if c.v[i]&live != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func (c *Counters) String() string {
	var b strings.Builder
	for i, k := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, c.Get(k))
	}
	return b.String()
}

// Set is a Counters whose cells the owner keeps in its own struct and
// addresses by its typed counter id ID, the index of the counter's name
// in the owner's Table: a set costs its owner no allocation, and an
// increment is an indexed add.
type Set[ID ~uint8] struct{ Counters }

// Bind names cells, the owner's storage for the set, by t.
func (s *Set[ID]) Bind(t *Table, cells []uint64) {
	if len(cells) != len(t.Names) {
		panic(fmt.Sprintf("metrics: %s counters declare %d names for %d cells", t.Set, len(t.Names), len(cells)))
	}
	s.t, s.v = t, cells
}

// Add adds delta to counter id.
func (s *Set[ID]) Add(id ID, delta uint64) { s.v[id] = (s.v[id] + delta) | live }

// Value returns counter id's value.
func (s *Set[ID]) Value(id ID) uint64 { return s.v[id] &^ live }

// CheckTable is the test of a declaring package's counters: it fails
// unless t names each of the n ids of ID with a unique snake_case name
// and each id's by-name read equals its typed read after an add.
func CheckTable[ID ~uint8](t *Table, n ID) error {
	if len(t.Names) != int(n) {
		return fmt.Errorf("%s counters: %d names for %d ids", t.Set, len(t.Names), n)
	}
	var s Set[ID]
	s.Bind(t, make([]uint64, n))
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := make(map[string]bool)
	for i, name := range t.Names {
		id := ID(i)
		if !snake.MatchString(name) || seen[name] {
			return fmt.Errorf("%s counter %d: name %q is empty, repeated or not snake_case", t.Set, i, name)
		}
		seen[name] = true
		s.Add(id, uint64(i)+1)
		if s.Get(name) != s.Value(id) || s.Value(id) != uint64(i)+1 {
			return fmt.Errorf("%s counter %q: Get reads %d, Value %d", t.Set, name, s.Get(name), s.Value(id))
		}
	}
	if len(s.Names()) != len(t.Names) {
		return fmt.Errorf("%s counters: %d of %d names listed after an add to each", t.Set, len(s.Names()), len(t.Names))
	}
	return nil
}

// Recorder combines a Welford accumulator with a histogram so a latency
// series can report mean/stddev and tail quantiles together — the shape
// the fault-recovery metrics need (mean detection latency, p99 recovery
// time). The zero value is unusable; use NewRecorder.
type Recorder struct {
	Welford
	hist *Histogram
}

// NewRecorder returns a recorder whose histogram spans [lo, hi) with
// nbuckets equal-width buckets.
func NewRecorder(lo, hi float64, nbuckets int) *Recorder {
	return &Recorder{hist: NewHistogram(lo, hi, nbuckets)}
}

// Add records one sample in both collectors.
func (r *Recorder) Add(x float64) {
	r.Welford.Add(x)
	r.hist.Add(x)
}

// Quantile estimates the q-quantile from the histogram, clamped to the
// observed extrema so overflow samples cannot report beyond Max.
func (r *Recorder) Quantile(q float64) float64 {
	if r.N() == 0 {
		return 0
	}
	v := r.hist.Quantile(q)
	if v < r.Min() {
		v = r.Min()
	}
	if v > r.Max() {
		v = r.Max()
	}
	return v
}

// P99 is Quantile(0.99).
func (r *Recorder) P99() float64 { return r.Quantile(0.99) }

// LatencySplit aggregates the two delay components the paper reports per
// traffic class: HCA queuing delay and network latency (section 3.1).
type LatencySplit struct {
	Queuing Welford
	Network Welford
}

// AddSample records one delivered packet's delay components, in
// microseconds (the paper's reporting unit).
func (l *LatencySplit) AddSample(queuingUS, networkUS float64) {
	l.Queuing.Add(queuingUS)
	l.Network.Add(networkUS)
}

// Storm is a bucketed retry-storm gauge: events (retransmissions) are
// counted into fixed windows of the timeline and the densest window is
// tracked, so an experiment can report the peak retransmission rate a
// recovery policy produced rather than just the total. Timestamps must
// be non-decreasing (simulation order), which keeps it O(1) per event
// with no per-event storage.
type Storm struct {
	window   float64
	cur      int64
	curCount uint64
	max      uint64
}

// NewStorm creates a storm gauge with the given window size, in the
// caller's time unit (conventionally microseconds).
func NewStorm(window float64) *Storm {
	if window <= 0 {
		panic("metrics: non-positive storm window")
	}
	return &Storm{window: window, cur: -1}
}

// Add counts one event at time t.
func (s *Storm) Add(t float64) {
	idx := int64(t / s.window)
	if idx != s.cur {
		s.cur, s.curCount = idx, 0
	}
	s.curCount++
	if s.curCount > s.max {
		s.max = s.curCount
	}
}

// Max returns the highest event count observed in any single window.
func (s *Storm) Max() uint64 { return s.max }
