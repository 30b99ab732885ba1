package model

import (
	"math"
	"testing"

	"energybench/internal/bench"
)

// noisyObs builds observations from a known model P = 10 + 3·alu·threads
// with a fixed small perturbation pattern, so standard errors are nonzero
// but the estimates stay near truth.
func noisyObs() []Observation {
	noise := []float64{0.2, -0.15, 0.1, -0.05, 0.12, -0.18}
	var obs []Observation
	for i, threads := range []float64{1, 2, 3, 4, 5, 6} {
		obs = append(obs, Observation{
			Label:    "alu",
			PowerW:   10 + 3*threads + noise[i],
			Activity: map[bench.Component]float64{"int-alu": threads},
		})
	}
	return obs
}

func TestFitStandardErrors(t *testing.T) {
	fit, err := FitPower(noisyObs())
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if fit.DoF != 4 {
		t.Errorf("dof = %d, want 4 (6 observations, 2 parameters)", fit.DoF)
	}
	if fit.PStaticSEW <= 0 {
		t.Errorf("intercept SE = %v, want positive on a noisy fit", fit.PStaticSEW)
	}
	se, ok := fit.CoeffSEW["int-alu"]
	if !ok || se <= 0 {
		t.Errorf("coefficient SE = %v (ok=%v), want positive", se, ok)
	}
	ci := fit.CoeffCI95W["int-alu"]
	if len(ci) != 2 {
		t.Fatalf("coefficient CI = %v, want [lo, hi]", ci)
	}
	est := fit.CoeffW["int-alu"]
	wantLo, wantHi := est-1.96*se, est+1.96*se
	if math.Abs(ci[0]-wantLo) > 1e-12 || math.Abs(ci[1]-wantHi) > 1e-12 {
		t.Errorf("CI = %v, want [%v, %v]", ci, wantLo, wantHi)
	}
	if ci[0] > 3 || ci[1] < 3 {
		t.Errorf("CI %v excludes the true coefficient 3", ci)
	}

	rses, ok := fit.RSE()
	if !ok {
		t.Fatal("RSE unavailable on a fit with dof > 0")
	}
	if got, want := rses["int-alu"], se/math.Abs(est); math.Abs(got-want) > 1e-12 {
		t.Errorf("RSE[int-alu] = %v, want SE/|est| = %v", got, want)
	}
	maxRSE, ok := fit.MaxRSE()
	if !ok {
		t.Fatal("MaxRSE unavailable")
	}
	for _, r := range rses {
		if r > maxRSE {
			t.Errorf("MaxRSE %v below a parameter RSE %v", maxRSE, r)
		}
	}
}

// TestFitExactlyDeterminedOmitsErrors: with exactly as many observations as
// parameters there is no residual degree of freedom and no standard error.
func TestFitExactlyDeterminedOmitsErrors(t *testing.T) {
	fit, err := FitPower(noisyObs()[:2])
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if fit.DoF != 0 {
		t.Errorf("dof = %d, want 0", fit.DoF)
	}
	if fit.CoeffSEW != nil || fit.PStaticCI95W != nil {
		t.Errorf("exactly-determined fit carries standard errors: se=%v ci=%v", fit.CoeffSEW, fit.PStaticCI95W)
	}
	if _, ok := fit.RSE(); ok {
		t.Error("RSE claims availability with zero dof")
	}
	if _, ok := fit.MaxRSE(); ok {
		t.Error("MaxRSE claims availability with zero dof")
	}
}

// TestPredictionVariance exercises the planner's leverage API on a fit:
// Score is the prediction variance xᵀ(XᵀX)⁻¹x, and Add is the rank-1 update
// a refit with the added row would give.
func TestPredictionVariance(t *testing.T) {
	obs := noisyObs()
	fit, err := FitPower(obs)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	lev := fit.Leverage()
	if lev == nil {
		t.Fatal("leverage unavailable")
	}
	// Leverage is smallest near the design's center of mass and grows toward
	// and beyond its edges.
	edge := map[bench.Component]float64{"int-alu": 12}
	mid, out := lev.Score(map[bench.Component]float64{"int-alu": 3.5}), lev.Score(edge)
	if out <= mid {
		t.Errorf("extrapolation leverage %v not above interior leverage %v", out, mid)
	}
	// A component outside the fitted basis adds a column: maximally
	// informative.
	if v := lev.Score(map[bench.Component]float64{"dram": 1}); !math.IsInf(v, 1) {
		t.Errorf("unfitted component scores %v, want +Inf", v)
	}

	// Adding a row must match refitting with it, and shrink its own
	// leverage to v/(1+v).
	lev.Add(edge)
	refit, err := FitPower(append(obs, Observation{Label: "edge", PowerW: 46, Activity: edge}))
	if err != nil {
		t.Fatalf("refit: %v", err)
	}
	for _, a := range []float64{0, 3.5, 12} {
		x := map[bench.Component]float64{"int-alu": a}
		if got, want := lev.Score(x), refit.Leverage().Score(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("after Add, leverage at %v = %v, refit gives %v", a, got, want)
		}
	}
	if got, want := lev.Score(edge), out/(1+out); math.Abs(got-want) > 1e-12 {
		t.Errorf("added row's leverage = %v, want %v", got, want)
	}
	// Leverage is a private copy: updating it leaves the fit's design alone.
	if again := fit.Leverage().Score(edge); again != out {
		t.Errorf("Add changed the fit's own design: leverage %v, was %v", again, out)
	}
}
