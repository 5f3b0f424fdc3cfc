package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestNormCDF(t *testing.T) {
	for _, c := range []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1, 0.15865525393145707},
	} {
		if got := normCDF(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("normCDF(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

// TestSuccessMCMatchesClosedForms checks the sampler against the two
// marginals that have closed forms through the normal CDF: with no t3
// cut-off success is P_t2 landing in the band, and with an unbounded band
// it is P_t3 clearing the cut-off.
func TestSuccessMCMatchesClosedForms(t *testing.T) {
	law := newTwoStep(2, 0.002, 0.1, 4, 3) // Table III's law at P0 = 2
	const n = 200000
	const z = 5.0
	cases := []struct {
		name  string
		bands []band
		cut   float64
		want  float64
	}{
		{"band only", []band{{1.9, 2.2}}, 0, law.probT2In(band{1.9, 2.2})},
		{"two bands", []band{{1.5, 1.9}, {2.1, 2.4}},
			0, law.probT2In(band{1.5, 1.9}) + law.probT2In(band{2.1, 2.4})},
		{"cut-off only", []band{{0, math.Inf(1)}}, 2.05, law.probT3Above(2.05)},
		{"empty band", []band{{3, 2}}, 0, 0},
	}
	for i, c := range cases {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		got, se := law.successMC(rng, c.bands, c.cut, n)
		if math.Abs(got-c.want) > z*se {
			t.Errorf("%s: MC %.5f ± %.5f, closed form %.5f", c.name, got, se, c.want)
		}
	}
}

// TestSuccessMCJoint pins the joint event with a near-deterministic second
// step: as s2 → 0, P_t3 = P_t2·exp(m2), so success is P_t2 in the band
// intersected with (cut·exp(−m2), ∞).
func TestSuccessMCJoint(t *testing.T) {
	law := newTwoStep(2, 0.002, 0.1, 4, 1e-12)
	cut := 2.0
	lo := cut * math.Exp(-law.m2)
	want := law.probT2In(band{math.Max(1.9, lo), 2.3})
	rng := rand.New(rand.NewSource(7))
	got, se := law.successMC(rng, []band{{1.9, 2.3}}, cut, 200000)
	if math.Abs(got-want) > 5*se {
		t.Errorf("MC %.5f ± %.5f, want %.5f", got, se, want)
	}
}

func TestSuccessMCStandardErrorNeverZero(t *testing.T) {
	law := newTwoStep(2, 0, 0.1, 1, 1)
	_, se := law.successMC(rand.New(rand.NewSource(1)), nil, 0, 1000)
	if se <= 0 {
		t.Fatalf("se = %v for an all-failure sample; want > 0", se)
	}
}
