package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{2, 0.5, 1, true}, // rank ⌈1⌉ = 1
		{3, 0.5, 2, true},
		{4, 0.5, 2, true},
		{10, 0.5, 5, true},
		{11, 0.5, 6, true},
		{100, 0.9, 90, true},    // 10 samples beyond rank 90
		{99, 0.9, 0, false},     // rank 90 leaves 9 beyond
		{1000, 0.99, 990, true}, // rank 990 leaves 10 beyond
		{999, 0.99, 0, false},   // rank 990 leaves 9 beyond
		{101, 0.9, 91, true},    // ⌈90.9⌉ = 91, 10 beyond
		{0, 0.5, 0, false},
		{10, 0, 0, false},
		{10, 1.5, 0, false},
	}
	for _, c := range cases {
		// Shuffled input: percentile must sort a copy, not rely on order.
		xs := seq(c.n)
		rand.New(rand.NewSource(int64(c.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		got, ok := percentile(xs, c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestHighestTail(t *testing.T) {
	cases := []struct {
		n    int
		name string
		ok   bool
	}{
		{39, "", false},   // under 40 samples: the median alone
		{40, "p75", true}, // rank 30, 10 beyond
		{99, "p75", true},
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
	}
	for _, c := range cases {
		name, _, ok := highestTail(seq(c.n))
		if name != c.name || ok != c.ok {
			t.Errorf("highestTail(n=%d) = %q, %v; want %q, %v", c.n, name, ok, c.name, c.ok)
		}
	}
}

func TestMedianAndUnits(t *testing.T) {
	if got := median([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := ms(1500 * time.Microsecond); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ms = %v", got)
	}
	if got := us(2 * time.Millisecond); got != 2000 {
		t.Errorf("us = %v", got)
	}
}
