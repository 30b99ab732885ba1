package model

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"energybench/internal/bench"
	"energybench/internal/harness"
)

// Observation is one data point for the fit: the mean power a configuration
// drew and how many threads were actively stressing each component.
type Observation struct {
	Label    string
	PowerW   float64
	Activity map[bench.Component]float64
}

// FromResults converts harness results into nominal-activity fit
// observations: each micro-benchmark result contributes its
// harness.Result.Activity design row. External-workload results are
// skipped: they are what the fitted model is validated *against*
// (Validate), never part of the micro-benchmark design it is fitted on.
func FromResults(results []harness.Result) []Observation {
	obs, _, _ := observations(results, ActivityNominal)
	return obs
}

// Residual is one observation's misfit under the fitted model.
type Residual struct {
	Label      string  `json:"label"`
	ActualW    float64 `json:"actual_w"`
	PredictedW float64 `json:"predicted_w"`
	ResidualW  float64 `json:"residual_w"`
}

// Fit is the fitted linear power model.
type Fit struct {
	// PStaticW is the intercept: power drawn with zero activity (static +
	// uncore + idle clock tree).
	PStaticW float64 `json:"p_static_w"`
	// CoeffW maps each component to its dynamic power per active thread.
	CoeffW map[bench.Component]float64 `json:"coeff_w_per_thread"`
	// R2 is the coefficient of determination; 1 means the model explains
	// the observations exactly.
	R2 float64 `json:"r2"`
	// RMSEW is the root-mean-square residual in watts.
	RMSEW     float64    `json:"rmse_w"`
	N         int        `json:"n"`
	DoF       int        `json:"dof"`
	Residuals []Residual `json:"residuals"`
	// PStaticSEW/CoeffSEW are the OLS standard errors of the intercept and
	// the per-component coefficients, and the *CI95W fields the matching
	// 95% confidence intervals (estimate ± 1.96·SE, the normal
	// approximation). They require at least one residual degree of freedom
	// (N > parameters) and are omitted on an exactly-determined fit. They
	// are the adaptive planner's stopping signal: a campaign is converged
	// once every coefficient's relative standard error is below target.
	PStaticSEW   float64                       `json:"p_static_se_w,omitempty"`
	CoeffSEW     map[bench.Component]float64   `json:"coeff_se_w_per_thread,omitempty"`
	PStaticCI95W []float64                     `json:"p_static_ci95_w,omitempty"`
	CoeffCI95W   map[bench.Component][]float64 `json:"coeff_ci95_w_per_thread,omitempty"`

	// comps is the fixed design ordering of the component columns and
	// invXtX the inverse normal matrix in that basis ([intercept, comps...]);
	// both back Leverage and neither serializes.
	comps  []bench.Component
	invXtX [][]float64
}

// RSE returns the relative standard error SE/|estimate| of every fitted
// parameter ("p_static" plus one entry per component) and ok when standard
// errors exist (DoF > 0). A zero estimate with a nonzero SE yields +Inf —
// that parameter cannot be called converged at any precision.
func (f *Fit) RSE() (map[string]float64, bool) {
	if f.DoF <= 0 {
		return nil, false
	}
	rel := func(se, est float64) float64 {
		switch {
		case se == 0:
			return 0
		case est == 0:
			return math.Inf(1)
		default:
			return se / math.Abs(est)
		}
	}
	out := map[string]float64{"p_static": rel(f.PStaticSEW, f.PStaticW)}
	for c, se := range f.CoeffSEW {
		out[string(c)] = rel(se, f.CoeffW[c])
	}
	return out, true
}

// MaxRSE returns the largest relative standard error across all fitted
// parameters; ok is false when standard errors are unavailable.
func (f *Fit) MaxRSE() (float64, bool) {
	rses, ok := f.RSE()
	if !ok {
		return 0, false
	}
	var worst float64
	for _, r := range rses {
		worst = math.Max(worst, r)
	}
	return worst, true
}

// Leverage is a fit's design as the adaptive planner's D-optimal pick sees
// it: the inverse normal matrix (XᵀX)⁻¹, scored against candidate activity
// vectors and updated as if a candidate had been measured. It is a private
// copy, so updating it never changes the fit.
type Leverage struct {
	comps []bench.Component
	inv   [][]float64
}

// Leverage returns a fresh copy of the fit's design, or nil when the fit
// carries no design inverse.
func (f *Fit) Leverage() *Leverage {
	if f.invXtX == nil {
		return nil
	}
	return &Leverage{comps: f.comps, inv: copyMatrix(f.invXtX)}
}

// row is the design row [1, activity...] in the fit's basis, or nil when the
// activity names a component outside it.
func (l *Leverage) row(activity map[bench.Component]float64) []float64 {
	x := make([]float64, len(l.comps)+1)
	x[0] = 1
	for c, a := range activity {
		j := slices.Index(l.comps, c)
		if j < 0 {
			return nil
		}
		x[j+1] = a
	}
	return x
}

// quad computes xᵀ(XᵀX)⁻¹x.
func (l *Leverage) quad(x []float64) float64 {
	var v float64
	for i := range x {
		for j := range x {
			v += x[i] * l.inv[i][j] * x[j]
		}
	}
	return v
}

// Score is the unscaled predictive leverage xᵀ(XᵀX)⁻¹x of an activity
// vector — the variance of the model's prediction there, up to the residual
// variance, and the D-optimality score the planner ranks candidates by. An
// activity naming a component outside the fitted basis scores +Inf: it adds
// a whole new column, so it is maximally informative.
func (l *Leverage) Score(activity map[bench.Component]float64) float64 {
	x := l.row(activity)
	if x == nil {
		return math.Inf(1)
	}
	return l.quad(x)
}

// Add updates the design as if a trial with this activity had been
// measured: the Sherman–Morrison rank-1 update
// A⁻¹ ← A⁻¹ − (A⁻¹x)(A⁻¹x)ᵀ / (1 + xᵀA⁻¹x). An activity outside the fitted
// basis leaves the design unchanged.
func (l *Leverage) Add(activity map[bench.Component]float64) {
	x := l.row(activity)
	if x == nil {
		return
	}
	k := len(x)
	ax := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			ax[i] += l.inv[i][j] * x[j]
		}
	}
	denom := 1 + l.quad(x)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			l.inv[i][j] -= ax[i] * ax[j] / denom
		}
	}
}

// Predict evaluates the fitted model on an activity vector. Components are
// summed in sorted order so the floating-point result — and everything
// derived from it (residuals, RMSE, golden-file output) — is deterministic
// across runs despite Go's randomized map iteration.
func (f Fit) Predict(activity map[bench.Component]float64) float64 {
	comps := make([]bench.Component, 0, len(activity))
	for c := range activity {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	p := f.PStaticW
	for _, c := range comps {
		p += f.CoeffW[c] * activity[c]
	}
	return p
}

// FitPower solves the ordinary-least-squares problem
// P_i = P_static + Σ_c a_c · activity_{i,c} over the observations. The
// design needs at least as many observations as unknowns and enough
// activity variation per component to separate its coefficient from the
// intercept (i.e. the same component measured at ≥ 2 thread counts).
func FitPower(obs []Observation) (*Fit, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("model: no observations")
	}
	compSet := map[bench.Component]bool{}
	for _, o := range obs {
		for c := range o.Activity {
			compSet[c] = true
		}
	}
	comps := make([]bench.Component, 0, len(compSet))
	for c := range compSet {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })

	k := len(comps) + 1 // intercept + one coefficient per component
	if len(obs) < k {
		return nil, fmt.Errorf("model: %d observations cannot identify %d parameters (intercept + %d components)",
			len(obs), k, len(comps))
	}

	// Build the design matrix row by row and accumulate the normal
	// equations XᵀX β = Xᵀy directly; k is tiny (≤ #components + 1).
	xtx := make([][]float64, k)
	for i := range xtx {
		xtx[i] = make([]float64, k)
	}
	xty := make([]float64, k)
	row := make([]float64, k)
	for _, o := range obs {
		row[0] = 1
		for j, c := range comps {
			row[j+1] = o.Activity[c]
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * o.PowerW
		}
	}
	// SolveLinear overwrites its inputs; solve on copies so the normal
	// matrix survives for the covariance inverse below.
	beta, err := SolveLinear(copyMatrix(xtx), append([]float64(nil), xty...))
	if err != nil {
		return nil, fmt.Errorf("model: design is rank-deficient — measure each component at two or more thread counts (%w)", err)
	}

	fit := &Fit{PStaticW: beta[0], CoeffW: map[bench.Component]float64{}, N: len(obs), comps: comps}
	fit.invXtX, err = invertMatrix(xtx)
	if err != nil {
		// Unreachable once the solve above succeeded, but a nil inverse
		// only disables variance scoring — never the fit itself.
		fit.invXtX = nil
	}
	for j, c := range comps {
		fit.CoeffW[c] = beta[j+1]
	}
	var ssRes, ssTot, mean float64
	for _, o := range obs {
		mean += o.PowerW
	}
	mean /= float64(len(obs))
	for _, o := range obs {
		pred := fit.Predict(o.Activity)
		res := o.PowerW - pred
		ssRes += res * res
		ssTot += (o.PowerW - mean) * (o.PowerW - mean)
		fit.Residuals = append(fit.Residuals, Residual{
			Label: o.Label, ActualW: o.PowerW, PredictedW: pred, ResidualW: res,
		})
	}
	fit.RMSEW = math.Sqrt(ssRes / float64(len(obs)))
	fit.DoF = len(obs) - k
	if fit.DoF > 0 && fit.invXtX != nil {
		// OLS covariance: Var(β) = σ²(XᵀX)⁻¹ with σ² the unbiased residual
		// variance. The 95% interval uses the normal approximation
		// (±1.96·SE); at the handful-of-dof end it understates the width a
		// t-quantile would give, which the planner's margin absorbs.
		sigma2 := ssRes / float64(fit.DoF)
		se := func(j int) float64 { return math.Sqrt(sigma2 * math.Max(fit.invXtX[j][j], 0)) }
		ci := func(est, se float64) []float64 { return []float64{est - 1.96*se, est + 1.96*se} }
		fit.PStaticSEW = se(0)
		fit.PStaticCI95W = ci(fit.PStaticW, fit.PStaticSEW)
		fit.CoeffSEW = map[bench.Component]float64{}
		fit.CoeffCI95W = map[bench.Component][]float64{}
		for j, c := range comps {
			s := se(j + 1)
			fit.CoeffSEW[c] = s
			fit.CoeffCI95W[c] = ci(fit.CoeffW[c], s)
		}
	}
	switch {
	case ssTot > 0:
		fit.R2 = 1 - ssRes/ssTot
	case ssRes <= 1e-18:
		// Constant observations fitted exactly (e.g. a constant-power
		// mock): the model explains everything there is to explain.
		fit.R2 = 1
	default:
		fit.R2 = 0
	}
	return fit, nil
}

func copyMatrix(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		out[i] = append([]float64(nil), a[i]...)
	}
	return out
}

// invertMatrix inverts a symmetric positive-definite matrix (the normal
// matrix XᵀX) column by column through SolveLinear, reusing its pivoting
// and singularity detection. a is preserved.
func invertMatrix(a [][]float64) ([][]float64, error) {
	n := len(a)
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = make([]float64, n)
	}
	for col := 0; col < n; col++ {
		e := make([]float64, n)
		e[col] = 1
		x, err := SolveLinear(copyMatrix(a), e)
		if err != nil {
			return nil, err
		}
		for row := 0; row < n; row++ {
			inv[row][col] = x[row]
		}
	}
	return inv, nil
}

// SolveLinear solves a·x = b by Gaussian elimination with partial pivoting,
// failing on a singular matrix. a and b are overwritten. It is the one
// dense solver: the OLS fit and the bo planner's surrogate both use it.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	var scale float64
	for i := range a {
		for j := range a[i] {
			scale = math.Max(scale, math.Abs(a[i][j]))
		}
	}
	eps := 1e-12 * math.Max(scale, 1)
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < eps {
			return nil, fmt.Errorf("singular matrix at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i][j] * x[j]
		}
		x[i] = sum / a[i][i]
	}
	return x, nil
}

// Marginal quantifies the cost of a second thread of a spec: "smt" when the
// second thread co-schedules on the SMT sibling (compact placement), "cmp"
// when it runs on a second physical core (scatter). This is the paper's
// central CMP-vs-SMT comparison.
type Marginal struct {
	Spec  string `json:"spec"`
	Meter string `json:"meter"`
	// Kind is "smt" (compact, sibling sharing a core) or "cmp" (scatter,
	// second physical core).
	Kind            string  `json:"kind"`
	Placement       string  `json:"placement"`
	MarginalPowerW  float64 `json:"marginal_power_w"`  // P(2 threads) − P(1 thread)
	MarginalEnergyJ float64 `json:"marginal_energy_j"` // E(2 threads) − E(1 thread), at 2× work
	ThroughputGain  float64 `json:"throughput_gain"`   // 2·T(1)/T(2); 2 = perfect scaling
}

// Marginals derives the second-thread cost for every spec measured solo at
// one and two threads under compact and/or scatter placement. The 1-thread
// baseline prefers the same placement and falls back to unpinned ("none").
// Baselines never cross meters: a store accumulating mock and RAPL runs of
// the same spec yields separate per-meter marginals, not a mixed subtraction.
func Marginals(results []harness.Result) []Marginal {
	type cfg struct {
		spec      string
		meter     string
		threads   int
		placement harness.Placement
	}
	solo := map[cfg]harness.Result{}
	subjects := map[[2]string]bool{} // (spec, meter)
	for _, r := range results {
		if r.IsCoRun() || r.Workload != "" {
			continue
		}
		solo[cfg{r.Spec, r.Meter, r.Threads, r.Placement}] = r
		subjects[[2]string{r.Spec, r.Meter}] = true
	}
	keys := make([][2]string, 0, len(subjects))
	for s := range subjects {
		keys = append(keys, s)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	var out []Marginal
	for _, key := range keys {
		name, meterName := key[0], key[1]
		for _, pk := range []struct {
			placement harness.Placement
			kind      string
		}{{harness.PlaceCompact, "smt"}, {harness.PlaceScatter, "cmp"}} {
			two, ok := solo[cfg{name, meterName, 2, pk.placement}]
			if !ok {
				continue
			}
			one, ok := solo[cfg{name, meterName, 1, pk.placement}]
			if !ok {
				one, ok = solo[cfg{name, meterName, 1, harness.PlaceNone}]
			}
			if !ok || one.TimeS.Mean <= 0 || two.TimeS.Mean <= 0 || one.Iters != two.Iters {
				continue
			}
			out = append(out, Marginal{
				Spec:            name,
				Meter:           meterName,
				Kind:            pk.kind,
				Placement:       string(pk.placement),
				MarginalPowerW:  two.PowerW.Mean - one.PowerW.Mean,
				MarginalEnergyJ: two.EnergyJ.Mean - one.EnergyJ.Mean,
				ThroughputGain:  2 * one.TimeS.Mean / two.TimeS.Mean,
			})
		}
	}
	return out
}
