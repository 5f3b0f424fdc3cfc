package main

import (
	"math"
	"math/rand"
)

// twoStep is the basic game's price law at its two decision points,
// written here apart from the program so it can check the program's
// success rates: under GBM (§III.A) P_t2 = P0·exp(m1 + s1·Z1) after τa and
// P_t3 = P_t2·exp(m2 + s2·Z2) after a further τb, with m = (µ − σ²/2)τ,
// s = σ√τ and Z1, Z2 independent standard normals.
type twoStep struct{ p0, m1, s1, m2, s2 float64 }

func newTwoStep(p0, mu, sigma, tauA, tauB float64) twoStep {
	drift := mu - sigma*sigma/2
	return twoStep{
		p0: p0,
		m1: drift * tauA, s1: sigma * math.Sqrt(tauA),
		m2: drift * tauB, s2: sigma * math.Sqrt(tauB),
	}
}

// band is one interval (lo, hi] of t2 prices.
type band struct{ lo, hi float64 }

// successMC estimates the swap's success probability — B continues at t2
// (P_t2 in one of bands) and A reveals at t3 (P_t3 > cut) — from n paths,
// returning the estimate and its binomial standard error.
func (l twoStep) successMC(rng *rand.Rand, bands []band, cut float64, n int) (p, se float64) {
	hits := 0
	for i := 0; i < n; i++ {
		p2 := l.p0 * math.Exp(l.m1+l.s1*rng.NormFloat64())
		in := false
		for _, b := range bands {
			if p2 > b.lo && p2 <= b.hi {
				in = true
				break
			}
		}
		if !in {
			continue
		}
		if p2*math.Exp(l.m2+l.s2*rng.NormFloat64()) > cut {
			hits++
		}
	}
	p = float64(hits) / float64(n)
	// The 1/n term keeps the error honest when no or every path succeeds.
	return p, math.Sqrt((p*(1-p) + 1/float64(n)) / float64(n))
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// probT2In is the closed form of P[P_t2 ∈ (lo, hi]].
func (l twoStep) probT2In(b band) float64 {
	z := func(x float64) float64 {
		if x <= 0 {
			return math.Inf(-1)
		}
		return (math.Log(x/l.p0) - l.m1) / l.s1
	}
	return normCDF(z(b.hi)) - normCDF(z(b.lo))
}

// probT3Above is the closed form of P[P_t3 > cut]: log P_t3/P0 is normal
// with mean m1+m2 and variance s1²+s2².
func (l twoStep) probT3Above(cut float64) float64 {
	return 1 - normCDF((math.Log(cut/l.p0)-l.m1-l.m2)/math.Hypot(l.s1, l.s2))
}
