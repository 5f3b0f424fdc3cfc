package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gbm"
	"repro/internal/mathx"
	"repro/internal/scenario"
	"repro/internal/timeline"
	"repro/internal/utility"
)

// oracleOptimal is the per-price grid search that solved Eq. 44 before the
// closed-form best response: a 161-point scan of log X over the lock range,
// refined by golden section. It is kept here only as a reference solve.
func oracleOptimal(e *xEval) (xStar, val float64) {
	lo, hi := e.lockRange()
	obj := func(lx float64) float64 { return e.bobT2(math.Exp(lx)) }
	lArg, lVal := mathx.GridMax(obj, math.Log(lo), math.Log(hi), 160, 1e-10)
	if lVal <= 0 {
		return 0, 0
	}
	return math.Exp(lArg), lVal
}

// bruteForceMax scans Eq. 43 on n log-spaced amounts over the lock range.
func bruteForceMax(e *xEval, n int) (xBest, vBest float64) {
	lo, hi := e.lockRange()
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := 0; i <= n; i++ {
		x := math.Exp(llo + (lhi-llo)*float64(i)/float64(n))
		if v := e.bobT2(x); v > vBest {
			xBest, vBest = x, v
		}
	}
	return xBest, vBest
}

// randomParams draws a valid parameter set spanning the regimes the
// scenario atlas explores and beyond.
func randomParams(rng *rand.Rand) utility.Params {
	u := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	p := utility.Default()
	p.Alice.Alpha, p.Bob.Alpha = u(0.01, 0.6), u(0.01, 0.6)
	p.Alice.R, p.Bob.R = u(0.001, 0.05), u(0.001, 0.05)
	p.Chains.TauA, p.Chains.TauB = u(0.5, 6), u(0.5, 6)
	p.Chains.EpsB = u(0.05, 0.9) * p.Chains.TauB
	p.Price.Mu, p.Price.Sigma = u(-0.01, 0.01), u(0.02, 0.4)
	p.P0 = math.Exp(u(-1, 2))
	return p
}

// compareWithOracle checks the closed-form best response against the grid
// oracle at one (model, budget, price, amount) point and reports whether
// the oracle missed a profitable lock.
func compareWithOracle(t *testing.T, u *Uncertain, y, a float64) (oracleMissed bool) {
	t.Helper()
	e := u.newXEval(y, a)
	x, v := e.optimal()
	xo, vo := oracleOptimal(&e)
	if v < vo-1e-12 {
		t.Errorf("%+v budget=%g y=%g a=%g: U^B=%g at X=%g below oracle %g at X=%g",
			u.m.params, u.budget, y, a, v, x, vo, xo)
	}
	if x > 0 && xo > 0 {
		if math.Abs(v-vo) > 1e-9 || math.Abs(x-xo) > 1e-6*xo {
			t.Errorf("%+v budget=%g y=%g a=%g: (X, U^B) = (%g, %g), oracle (%g, %g)",
				u.m.params, u.budget, y, a, x, v, xo, vo)
		}
	}
	return xo == 0 && x > 0
}

// checkModelAgainstOracle compares the two solves over budgets {∞, 5, 0.5},
// a spread of amounts, and prices spanning ±4 standard deviations of the
// t2 price around P0.
func checkModelAgainstOracle(t *testing.T, m *Model, amounts []float64) (points, missed int) {
	t.Helper()
	p := m.Params()
	sd := p.Price.Sigma * math.Sqrt(p.Chains.TauA)
	for _, budget := range []float64{math.Inf(1), 5, 0.5} {
		u := &Uncertain{m: m, budget: budget}
		for _, a := range amounts {
			for _, z := range []float64{-4, -2, -1, 0, 1, 2, 4} {
				points++
				if compareWithOracle(t, u, p.P0*math.Exp(z*sd), a) {
					missed++
				}
			}
		}
	}
	return points, missed
}

func TestBestResponseMatchesOracleOnPresets(t *testing.T) {
	for _, sc := range scenario.Registry() {
		m, err := New(sc.Params)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		checkModelAgainstOracle(t, m, []float64{0.25, 1, sc.PStar, 8.91})
	}
}

func TestBestResponseMatchesOracleOnRandomDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var points, missed int
	for i := 0; i < 200; i++ {
		m, err := New(randomParams(rng))
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		amounts := []float64{math.Exp(rng.Float64()*4 - 2), math.Exp(rng.Float64()*4 - 2)}
		pts, miss := checkModelAgainstOracle(t, m, amounts)
		points += pts
		missed += miss
	}
	t.Logf("%d price points, oracle missed a profitable lock at %d", points, missed)
}

func TestBestResponseFindsLockOracleMisses(t *testing.T) {
	// B's profitable window here is narrow and falls between the points of
	// the grid oracle's 161-point scan, whose refinement then searches the
	// wrong panel: the oracle returns X* = 0, but a dense scan confirms B
	// gains by locking.
	p := utility.Params{
		Alice:  utility.AgentParams{Alpha: 0.5679, R: 0.03333},
		Bob:    utility.AgentParams{Alpha: 0.09693, R: 0.0242},
		Chains: timeline.Chains{TauA: 0.6462, TauB: 5.614, EpsB: 2.870},
		Price:  gbm.Process{Mu: 0.0023015, Sigma: 0.07908},
		P0:     0.3919,
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const y, a = 0.3918, 2.033
	e := m.Uncertain().newXEval(y, a)
	if xo, _ := oracleOptimal(&e); xo != 0 {
		t.Fatalf("oracle X* = %g, want 0 (case no longer pins the miss)", xo)
	}
	xb, vb := bruteForceMax(&e, 200000)
	if vb <= 0 {
		t.Fatalf("dense scan max U^B = %g at X=%g, want a profitable lock", vb, xb)
	}
	x, v := e.optimal()
	if x <= 0 || v < vb {
		t.Errorf("best response (X, U^B) = (%g, %g), want a lock at least as good as the dense scan's (%g, %g)", x, v, xb, vb)
	}
}
