package adapt

import (
	"math"
	"math/rand"
	"sort"

	"energybench/internal/harness"
	"energybench/internal/model"
)

// selectSpread picks the seeding batch (and any batch while the model is
// still unidentifiable): a stratified spread rather than a uniform draw.
// Candidates are bucketed by workload group (spec or spec pair + placement),
// each bucket ordered extremes-first in thread count — the 1-thread and
// max-thread ends are what separate a component's coefficient from the
// intercept — and the batch round-robins across buckets in an rng-shuffled
// order. This reaches an identifiable design (every component at ≥ 2 thread
// counts) in roughly 2×#groups trials, where a uniform random draw routinely
// wastes a whole round re-measuring one group's middle.
func selectSpread(candidates []harness.Trial, n int, rng *rand.Rand) []harness.Trial {
	if n > len(candidates) {
		n = len(candidates)
	}
	groups := map[string][]harness.Trial{}
	var order []string
	for _, t := range candidates {
		key := t.Name() + "/" + string(t.Placement)
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], t)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, key := range order {
		groups[key] = extremesFirst(groups[key])
	}
	batch := make([]harness.Trial, 0, n)
	for len(batch) < n {
		picked := false
		for _, key := range order {
			if len(batch) == n {
				break
			}
			g := groups[key]
			if len(g) == 0 {
				continue
			}
			batch = append(batch, g[0])
			groups[key] = g[1:]
			picked = true
		}
		if !picked {
			break
		}
	}
	return batch
}

// extremesFirst orders trials by thread count from the outside in:
// min, max, second-min, second-max, … (plan order within equal threads).
func extremesFirst(ts []harness.Trial) []harness.Trial {
	sorted := append([]harness.Trial(nil), ts...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Threads < sorted[j].Threads })
	out := make([]harness.Trial, 0, len(sorted))
	for lo, hi := 0, len(sorted)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		out = append(out, sorted[lo])
		if hi != lo {
			out = append(out, sorted[hi])
		}
	}
	return out
}

// selectDOptimal picks the n candidates with the highest expected
// information gain under the current fit. Each candidate is scored by the
// predictive leverage of its design row (Trial.Activity) — the variance of
// the model's prediction at that configuration, i.e. where the fitted
// coefficients are least constrained (D-optimal sequential design). The pick
// is greedy within the batch: after each selection the fit's Leverage is
// rank-1 updated as if the trial had been measured, so the batch spreads
// over complementary directions instead of n copies of the single most
// uncertain point. Candidates whose activity falls outside the fitted basis
// (a component with no column yet) score +Inf — a new column is always the
// biggest information gain. Ties break on plan order; the selection is fully
// deterministic given the fit.
func selectDOptimal(fit *model.Fit, candidates []harness.Trial, n int) []harness.Trial {
	if n > len(candidates) {
		n = len(candidates)
	}
	lev := fit.Leverage()
	if lev == nil {
		// No covariance to score with; plan order is the only criterion left.
		return append([]harness.Trial(nil), candidates[:n]...)
	}
	remaining := append([]harness.Trial(nil), candidates...)
	batch := make([]harness.Trial, 0, n)
	for len(batch) < n && len(remaining) > 0 {
		best, bestScore := -1, math.Inf(-1)
		for i, t := range remaining {
			if v := lev.Score(t.Activity()); v > bestScore {
				best, bestScore = i, v
			}
		}
		lev.Add(remaining[best].Activity())
		batch = append(batch, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return batch
}
