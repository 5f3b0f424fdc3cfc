package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the "tail" is one or two unlucky samples.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (the smallest value
// with at least q·n samples at or below it: rank ⌈q·n⌉, 1-based). ok is
// false for an empty sample and for a tail percentile (q > 0.5) with fewer
// than minBeyond samples above its rank. xs is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the nearest-rank median (0 for an empty sample).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// highestTail returns the highest of p99, p90 and p75 that the sample can
// report under the minBeyond rule, with its name ("p99"); ok is false when
// none can (fewer than 40 samples report the median alone).
func highestTail(xs []float64) (name string, v float64, ok bool) {
	if len(xs) < 40 {
		return "", 0, false
	}
	for _, t := range []struct {
		name string
		q    float64
	}{{"p99", 0.99}, {"p90", 0.90}, {"p75", 0.75}} {
		if v, ok := percentile(xs, t.q); ok {
			return t.name, v, true
		}
	}
	return "", 0, false
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overheadPct is the tracing overhead: how much slower the traced rounds'
// primary operation ran than the untraced rounds' (percent).
func overheadPct(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	u := median(untraced)
	return 100 * (median(traced) - u) / u
}
