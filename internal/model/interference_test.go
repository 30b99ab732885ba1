package model

import (
	"fmt"
	"math/rand"
	"testing"

	"energybench/internal/harness"
)

// scanBaseline is the reference pick the index must reproduce: one pass
// over the dataset in store order, returning the first solo result at the
// co-run's placement, else the last unpinned one, else the last at any
// other placement.
func scanBaseline(results []harness.Result, k soloKey, placement harness.Placement) *harness.Result {
	var none, fallback *harness.Result
	for i := range results {
		r := &results[i]
		if r.IsCoRun() || r.Spec != k.spec || r.Threads != k.threads || r.Iters != k.iters || r.Meter != k.meter {
			continue
		}
		switch r.Placement {
		case placement:
			return r
		case harness.PlaceNone:
			none = r
		default:
			fallback = r
		}
	}
	if none != nil {
		return none
	}
	return fallback
}

// TestBaselineIndexMatchesScan: on randomized datasets, with duplicates
// and co-runs mixed in, the indexed baseline is the very result a scan in
// store order picks, for every key and co-run placement.
func TestBaselineIndexMatchesScan(t *testing.T) {
	specs := []string{"int-alu", "chase-l2"}
	meters := []string{"mock", "rapl"}
	placements := []harness.Placement{harness.PlaceNone, harness.PlaceCompact, harness.PlaceScatter, "custom"}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		results := make([]harness.Result, rng.Intn(40))
		for i := range results {
			results[i] = harness.Result{
				Spec:      specs[rng.Intn(len(specs))],
				Threads:   1 + rng.Intn(2),
				Iters:     1000 * (1 + rng.Intn(2)),
				Meter:     meters[rng.Intn(len(meters))],
				Placement: placements[rng.Intn(len(placements))],
			}
			if rng.Intn(4) == 0 {
				results[i].SpecB = specs[rng.Intn(len(specs))]
			}
		}
		idx := indexSolos(results)
		for _, spec := range specs {
			for threads := 1; threads <= 2; threads++ {
				for _, iters := range []int{1000, 2000} {
					for _, m := range meters {
						k := soloKey{spec, threads, iters, m}
						for _, p := range placements {
							got, want := idx.baseline(results, k, p), scanBaseline(results, k, p)
							if got != want {
								t.Fatalf("round %d, %+v at %s: index picked %s, scan picked %s",
									round, k, p, position(results, got), position(results, want))
							}
						}
					}
				}
			}
		}
	}
}

// position names a picked result by its index in the dataset.
func position(results []harness.Result, r *harness.Result) string {
	for i := range results {
		if &results[i] == r {
			return fmt.Sprintf("result %d", i)
		}
	}
	return "none"
}
