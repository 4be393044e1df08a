package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile sorted its argument in place: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

func TestSummarizeAndSpread(t *testing.T) {
	s := summarize("ns", []float64{10, 12, 11, 13, 9})
	if s.Median != 11 || s.Min != 9 || s.Max != 13 || s.N != 5 || s.Unit != "ns" {
		t.Fatalf("summarize = %+v", s)
	}
	// Quartiles 10 and 12 around a median of 11.
	if got, want := s.spread(), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := summarize("ns", []float64{3}).spread(); got != 0 {
		t.Errorf("spread of a single value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	hops := boundedDef{higher("hops_per_s", "hops/s"), 0.10}
	steady := func(m float64) Sample {
		return summarize(hops.Unit, []float64{m * 0.99, m, m * 1.01, m, m})
	}
	noisy := summarize(hops.Unit, []float64{70, 100, 130, 85, 115})
	for _, c := range []struct {
		name string
		a, b Sample
		want string
	}{
		{"same", steady(100), steady(100), "ok"},
		{"within bound", steady(100), steady(93), "ok"},
		{"past bound", steady(100), steady(85), "regressed"},
		{"faster", steady(100), steady(150), "ok"},
		{"noisy", steady(100), noisy, "unresolved"},
		{"noisy but every run better", noisy, steady(200), "ok"},
	} {
		if got := verdict(hops, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	allocs := boundedDef{lower("allocs_per_hop", "allocs/hop"), 0.01}
	a := summarize(allocs.Unit, []float64{7, 7, 7})
	if got := verdict(allocs, a, summarize(allocs.Unit, []float64{7.2, 7.2, 7.2})); got != "regressed" {
		t.Errorf("allocs up 2.9%%: verdict = %q, want regressed", got)
	}
	if got := verdict(allocs, a, summarize(allocs.Unit, []float64{6, 6, 6})); got != "ok" {
		t.Errorf("allocs down: verdict = %q, want ok", got)
	}
}
