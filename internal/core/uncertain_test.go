package core

import (
	"errors"
	"math"
	"testing"
)

func TestUncertainConstruction(t *testing.T) {
	m := newDefaultModel(t)
	u := m.Uncertain()
	if !math.IsInf(u.Budget(), 1) {
		t.Errorf("unconstrained budget = %v, want +Inf", u.Budget())
	}
	ub, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatalf("UncertainWithBudget: %v", err)
	}
	if ub.Budget() != 5 {
		t.Errorf("budget = %v, want 5", ub.Budget())
	}
	for _, b := range []float64{0, -1, math.NaN()} {
		if _, err := m.UncertainWithBudget(b); !errors.Is(err, ErrBadParam) {
			t.Errorf("UncertainWithBudget(%v) err = %v, want ErrBadParam", b, err)
		}
	}
}

func TestUncertainCutoffT3(t *testing.T) {
	// Eq. 41: P̄_t3,x(X) = P̄_t3/X, with P̄_t3,x(0) = ∞.
	m := newDefaultModel(t)
	u := m.Uncertain()
	base, _ := m.CutoffT3(4)
	tests := []struct {
		x    float64
		want float64
	}{
		{1, base},
		{2, base / 2},
		{0.5, base * 2},
	}
	for _, tt := range tests {
		got, err := u.CutoffT3(tt.x, 4)
		if err != nil {
			t.Fatalf("CutoffT3(%v, 4): %v", tt.x, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CutoffT3(%v, 4) = %v, want %v", tt.x, got, tt.want)
		}
	}
	inf, err := u.CutoffT3(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(inf, 1) {
		t.Errorf("CutoffT3(0, 4) = %v, want +Inf", inf)
	}
	if _, err := u.CutoffT3(-1, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative X err = %v, want ErrBadParam", err)
	}
	if _, err := u.CutoffT3(1, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero amount err = %v, want ErrBadParam", err)
	}
}

func TestUncertainBobUtilityZeroLock(t *testing.T) {
	// Locking X = 0 is equivalent to stop: zero excess utility.
	m := newDefaultModel(t)
	u := m.Uncertain()
	got, err := u.BobExcessUtilityT2(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("BobExcessUtilityT2(0) = %v, want 0", got)
	}
}

func TestOptimalLockBIsOptimal(t *testing.T) {
	// The reported X* must (weakly) dominate a probe grid of alternatives.
	m := newDefaultModel(t)
	u := m.Uncertain()
	for _, y := range []float64{0.5, 1, 2, 4, 8} {
		xStar, val, err := u.OptimalLockB(y, 4)
		if err != nil {
			t.Fatalf("OptimalLockB(%v, 4): %v", y, err)
		}
		atStar, _ := u.BobExcessUtilityT2(xStar, y, 4)
		if !almostEqual(val, atStar, 1e-9) {
			t.Errorf("reported value %v != utility at X* %v", val, atStar)
		}
		for _, x := range []float64{0, 0.1, 0.5, 1, 2, 5, 10, 20} {
			alt, _ := u.BobExcessUtilityT2(x, y, 4)
			if alt > val+1e-6 {
				t.Errorf("y=%v: X=%v gives %v > optimum %v at X*=%v", y, x, alt, val, xStar)
			}
		}
	}
}

func TestUncertainHomogeneity(t *testing.T) {
	// Eq. 43 is homogeneous of degree 1 in (X, a): X*(y, λa) = λX*(y, a)
	// and B's optimal value scales by λ. This is the structural fact behind
	// DESIGN.md deviation 6.
	m := newDefaultModel(t)
	u := m.Uncertain()
	const y, a, lambda = 2.0, 4.0, 2.5
	x1, v1, err := u.OptimalLockB(y, a)
	if err != nil {
		t.Fatal(err)
	}
	x2, v2, err := u.OptimalLockB(y, lambda*a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x2, lambda*x1, 1e-3*x2) {
		t.Errorf("X*(λa) = %v, want λ·X*(a) = %v", x2, lambda*x1)
	}
	if !almostEqual(v2, lambda*v1, 1e-3*v2) {
		t.Errorf("val(λa) = %v, want λ·val(a) = %v", v2, lambda*v1)
	}
	// A's excess utility is linear in a for the unconstrained game.
	e1, err := u.AliceExcessUtilityT1(1)
	if err != nil {
		t.Fatal(err)
	}
	e4, err := u.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e4, 4*e1, 1e-3*math.Abs(e4)+1e-9) {
		t.Errorf("excess(4) = %v, want 4·excess(1) = %v", e4, 4*e1)
	}
}

func TestUncertainSuccessRateScaleInvariant(t *testing.T) {
	// Under the unconstrained best response, SR_x does not depend on a:
	// Eq. 43's homogeneity puts every amount's X* at one scale-free W*, so
	// across Fig. 11's grid the rates agree to rounding.
	m := newDefaultModel(t)
	u := m.Uncertain()
	ref, err := u.SuccessRate(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if ref <= 0 || ref >= 1 {
		t.Errorf("SR_x = %v, want in (0,1)", ref)
	}
	for i := 2; i <= 32; i++ {
		a := 0.25 * float64(i)
		sr, err := u.SuccessRate(a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sr-ref) > 1e-15 {
			t.Errorf("SR_x(%g) = %.17g != SR_x(0.25) = %.17g; expected scale invariance", a, sr, ref)
		}
	}
}

func TestUncertainBoostsSuccessRate(t *testing.T) {
	// Fig. 11 / §V.A: dynamic amounts raise the success rate above the
	// basic game's optimum.
	m := newDefaultModel(t)
	u := m.Uncertain()
	srX, err := u.SuccessRate(2)
	if err != nil {
		t.Fatal(err)
	}
	_, srBasic, err := m.OptimalRate()
	if err != nil {
		t.Fatal(err)
	}
	if srX <= srBasic {
		t.Errorf("SR_x = %v, want > basic optimum %v", srX, srBasic)
	}
}

func TestBudgetCapRespected(t *testing.T) {
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{0.3, 0.5, 1, 2, 4} {
		x, _, err := u.OptimalLockB(y, 8.91)
		if err != nil {
			t.Fatal(err)
		}
		if x > 5+1e-9 {
			t.Errorf("X*(%v) = %v exceeds budget 5", y, x)
		}
	}
}

func TestBudgetHumpShape(t *testing.T) {
	// Fig. 10a: with a budget, X* is zero at very low prices (even the whole
	// budget cannot deter A's withdrawal profitably), rises, then declines
	// like 1/P_t2.
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	const a = 8.91
	xLow, _, err := u.OptimalLockB(0.25, a)
	if err != nil {
		t.Fatal(err)
	}
	if xLow != 0 {
		t.Errorf("X*(0.25) = %v, want 0 at very low price", xLow)
	}
	xMid, _, err := u.OptimalLockB(2, a)
	if err != nil {
		t.Fatal(err)
	}
	if xMid <= 1 {
		t.Errorf("X*(2) = %v, want substantially positive", xMid)
	}
	xHigh, _, err := u.OptimalLockB(8, a)
	if err != nil {
		t.Fatal(err)
	}
	if !(xHigh < xMid && xHigh > 0) {
		t.Errorf("X*(8) = %v, want in (0, X*(2)=%v)", xHigh, xMid)
	}
}

func TestBudgetCreatesInteriorOptimumForAlice(t *testing.T) {
	// Fig. 10b: with a budget the excess utility has an interior maximum
	// and an upper break-even point.
	m := newDefaultModel(t)
	u, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	aStar, exStar, err := u.OptimalLockA(14)
	if err != nil {
		t.Fatalf("OptimalLockA: %v", err)
	}
	if aStar <= 1 || aStar >= 13.5 {
		t.Errorf("a* = %v, want interior of (1, 13.5)", aStar)
	}
	if exStar <= 0 {
		t.Errorf("optimal excess = %v, want > 0", exStar)
	}
	rng, ok, err := u.BreakEvenRange(14)
	if err != nil {
		t.Fatalf("BreakEvenRange: %v", err)
	}
	if !ok {
		t.Fatal("no break-even range")
	}
	if rng.Hi >= 14-1e-9 {
		t.Errorf("upper break-even = %v, want interior (excess goes negative)", rng.Hi)
	}
	// Outside the upper break-even the excess utility is negative.
	ex, err := u.AliceExcessUtilityT1(rng.Hi * 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if ex >= 0 {
		t.Errorf("excess(%v) = %v, want < 0 beyond break-even", rng.Hi*1.1, ex)
	}
}

func TestBudgetSuccessRateDeclinesPastBudget(t *testing.T) {
	// Once a outgrows what B can match, the capped SR_x falls below the
	// unconstrained (scale-invariant) level.
	m := newDefaultModel(t)
	uCap, err := m.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	srSmall, err := uCap.SuccessRate(2)
	if err != nil {
		t.Fatal(err)
	}
	srLarge, err := uCap.SuccessRate(12)
	if err != nil {
		t.Fatal(err)
	}
	if srLarge >= srSmall {
		t.Errorf("SR_x(12) = %v, want < SR_x(2) = %v under budget", srLarge, srSmall)
	}
}

func TestUncertainValidation(t *testing.T) {
	m := newDefaultModel(t)
	u := m.Uncertain()
	cases := []func() (float64, error){
		func() (float64, error) { return u.AliceUtilityT2(-1, 2, 4) },
		func() (float64, error) { return u.AliceUtilityT2(1, -2, 4) },
		func() (float64, error) { return u.AliceUtilityT2(1, 2, 0) },
		func() (float64, error) { return u.BobExcessUtilityT2(math.Inf(1), 2, 4) },
		func() (float64, error) { return u.BobExcessUtilityT2(1, 0, 4) },
		func() (float64, error) { return u.AliceExcessUtilityT1(-1) },
		func() (float64, error) { return u.SuccessRate(0) },
	}
	for i, f := range cases {
		if _, err := f(); !errors.Is(err, ErrBadParam) {
			t.Errorf("case %d: err = %v, want ErrBadParam", i, err)
		}
	}
	if _, _, err := u.OptimalLockB(0, 4); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockB bad price err = %v", err)
	}
	if _, _, err := u.OptimalLockB(2, -4); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockB bad amount err = %v", err)
	}
	if _, _, err := u.OptimalLockA(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("OptimalLockA bad aMax err = %v", err)
	}
	if _, _, err := u.BreakEvenRange(-2); !errors.Is(err, ErrBadParam) {
		t.Errorf("BreakEvenRange bad aMax err = %v", err)
	}
}

func TestUncertainAliceT2ZeroLockIsDiscountedRefund(t *testing.T) {
	// If B locks nothing, A's utility is her refund discounted one stage.
	m := newDefaultModel(t)
	u := m.Uncertain()
	got, err := u.AliceUtilityT2(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Params()
	want := math.Exp(-p.Alice.R*p.Chains.TauB) *
		4 * math.Exp(-p.Alice.R*(p.Chains.EpsB+2*p.Chains.TauA))
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("AliceUtilityT2(0) = %v, want %v", got, want)
	}
}

func TestOptimalLockAIncreasesWithRisingDrift(t *testing.T) {
	// A mild sanity cross-check: a strongly positive drift makes Token_b
	// more attractive for A, raising her willingness to commit.
	mLow, err := New(newDefaultModel(t).Params().WithMu(-0.01))
	if err != nil {
		t.Fatal(err)
	}
	mHigh, err := New(newDefaultModel(t).Params().WithMu(0.01))
	if err != nil {
		t.Fatal(err)
	}
	uLow, err := mLow.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	uHigh, err := mHigh.UncertainWithBudget(5)
	if err != nil {
		t.Fatal(err)
	}
	exLow, err := uLow.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	exHigh, err := uHigh.AliceExcessUtilityT1(4)
	if err != nil {
		t.Fatal(err)
	}
	if exHigh <= exLow {
		t.Errorf("excess with µ=0.01 (%v) should exceed µ=-0.01 (%v)", exHigh, exLow)
	}
}
