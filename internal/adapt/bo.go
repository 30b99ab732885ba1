package adapt

import (
	"math"
	"math/rand"
	"sort"

	"energybench/internal/harness"
	"energybench/internal/model"
)

// eiConvergedFrac declares a bo campaign done when the best remaining
// candidate's expected improvement falls below this fraction of the best
// observed EDP — further trials would be noise-chasing.
const eiConvergedFrac = 1e-3

// selectBO ranks candidates by expected improvement over the lowest EDP
// observed so far, under a lightweight quadratic surrogate: EDP is modeled
// as a per-workload-group offset (one-hot over spec/pair + placement) plus
// shared threads and threads² terms, fitted by ridge-regularized least
// squares over all observations. EI uses the surrogate's global residual
// scale as the predictive σ. Candidates in groups the surrogate has never
// seen are maximally uncertain and selected first; while there are too few
// observations to fit at all, selection falls back to the seeding spread.
// Returns an empty batch when no candidate's EI clears the convergence
// threshold — bo-mode convergence.
func selectBO(candidates []harness.Trial, results []harness.Result, n int, rng *rand.Rand) []harness.Trial {
	if n > len(candidates) {
		n = len(candidates)
	}
	obs := make([]harness.Result, 0, len(results))
	groups := map[string]int{}
	var groupOrder []string
	for _, r := range results {
		if r.EDP <= 0 {
			continue
		}
		obs = append(obs, r)
		g := resultGroup(r)
		if _, seen := groups[g]; !seen {
			groups[g] = len(groupOrder)
			groupOrder = append(groupOrder, g)
		}
	}
	k := len(groupOrder) + 2 // one-hot groups + threads + threads²
	if len(obs) < k {
		return selectSpread(candidates, n, rng)
	}

	row := func(group string, threads int) []float64 {
		x := make([]float64, k)
		x[groups[group]] = 1
		x[k-2] = float64(threads)
		x[k-1] = float64(threads * threads)
		return x
	}
	beta, rmse, ok := ridgeFit(obs, groups, row)
	if !ok {
		return selectSpread(candidates, n, rng)
	}
	best := math.Inf(1)
	for _, r := range obs {
		best = math.Min(best, r.EDP)
	}
	sigma := math.Max(rmse, 1e-12)

	// Score every candidate; unseen groups jump the queue with infinite EI.
	type scored struct {
		t  harness.Trial
		ei float64
	}
	ranked := make([]scored, 0, len(candidates))
	for _, t := range candidates {
		g := t.Name() + "/" + string(t.Placement)
		if _, seen := groups[g]; !seen {
			ranked = append(ranked, scored{t, math.Inf(1)})
			continue
		}
		x := row(g, t.Threads)
		var mu float64
		for j, b := range beta {
			mu += b * x[j]
		}
		ranked = append(ranked, scored{t, expectedImprovement(best, mu, sigma)})
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].ei > ranked[j].ei })

	threshold := eiConvergedFrac * math.Max(math.Abs(best), 1e-12)
	batch := make([]harness.Trial, 0, n)
	for _, s := range ranked {
		if len(batch) == n || s.ei <= threshold {
			break
		}
		batch = append(batch, s.t)
	}
	return batch
}

// resultGroup is the surrogate's workload-group key for a measured result,
// matching Trial.Name()+"/"+Placement on the candidate side.
func resultGroup(r harness.Result) string { return r.Name() + "/" + string(r.Placement) }

// expectedImprovement is the classic minimization EI: with improvement
// I = best − μ and z = I/σ, EI = I·Φ(z) + σ·φ(z).
func expectedImprovement(best, mu, sigma float64) float64 {
	if sigma <= 0 {
		return math.Max(best-mu, 0)
	}
	z := (best - mu) / sigma
	phi := math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
	cdf := 0.5 * math.Erfc(-z/math.Sqrt2)
	return (best-mu)*cdf + sigma*phi
}

// ridgeFit solves the surrogate least squares (FᵀF + λI)β = Fᵀy with a tiny
// ridge λ so a rank-deficient design (e.g. a group observed at one thread
// count) still yields a usable β, and returns the fit's residual RMSE.
func ridgeFit(obs []harness.Result, groups map[string]int, row func(group string, threads int) []float64) (beta []float64, rmse float64, ok bool) {
	k := len(groups) + 2
	ftf := make([][]float64, k)
	for i := range ftf {
		ftf[i] = make([]float64, k)
	}
	fty := make([]float64, k)
	var scale float64
	for _, r := range obs {
		x := row(resultGroup(r), r.Threads)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ftf[i][j] += x[i] * x[j]
			}
			fty[i] += x[i] * r.EDP
		}
	}
	for i := 0; i < k; i++ {
		scale = math.Max(scale, ftf[i][i])
	}
	lambda := 1e-8 * math.Max(scale, 1)
	for i := 0; i < k; i++ {
		ftf[i][i] += lambda
	}
	beta, err := model.SolveLinear(ftf, fty)
	if err != nil {
		return nil, 0, false
	}
	var ssRes float64
	for _, r := range obs {
		x := row(resultGroup(r), r.Threads)
		var pred float64
		for j := range x {
			pred += beta[j] * x[j]
		}
		ssRes += (r.EDP - pred) * (r.EDP - pred)
	}
	dof := len(obs) - k
	if dof < 1 {
		dof = 1
	}
	return beta, math.Sqrt(ssRes / float64(dof)), true
}
