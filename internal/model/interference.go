package model

import (
	"slices"
	"sort"

	"energybench/internal/harness"
)

// Interference compares one co-run configuration against the solo baselines
// of its two specs from the same dataset. Slowdowns are per-spec wall-time
// ratios (≥ 1 means the co-runner cost it time); excess energy is the
// co-run's energy minus the summed energy of running each spec's same
// workload alone.
type Interference struct {
	SpecA     string `json:"spec_a"`
	SpecB     string `json:"spec_b"`
	ThreadsA  int    `json:"threads_a"`
	ThreadsB  int    `json:"threads_b"`
	Placement string `json:"placement"`
	// Slowdowns: co-run wall time of the spec over its solo wall time at
	// identical work and thread count.
	SlowdownA float64 `json:"slowdown_a"`
	SlowdownB float64 `json:"slowdown_b"`
	// Energies: the co-run total vs the sum of the two solo baselines.
	CorunEnergyJ     float64 `json:"corun_energy_j"`
	SoloEnergyJ      float64 `json:"solo_energy_j"`
	ExcessEnergyJ    float64 `json:"excess_energy_j"`
	ExcessEnergyFrac float64 `json:"excess_energy_frac"`
	// Baseline placements actually used (same placement preferred, then
	// unpinned, then anything).
	BaselineA string `json:"baseline_a_placement"`
	BaselineB string `json:"baseline_b_placement"`
}

// soloKey is the work one side of a co-run measures: spec, thread count,
// iteration count and meter. A solo baseline must match it exactly.
type soloKey struct {
	spec           string
	threads, iters int
	meter          string
}

// placementSpan is where one placement's solo results for a soloKey sit in
// the dataset: the indices of the first and the last of them.
type placementSpan struct {
	placement   harness.Placement
	first, last int
}

// soloIndex maps every soloKey to its placements' spans, so picking a
// baseline scans a key's few placements instead of the whole dataset.
type soloIndex map[soloKey][]placementSpan

func indexSolos(results []harness.Result) soloIndex {
	idx := soloIndex{}
	for i := range results {
		r := &results[i]
		if r.IsCoRun() {
			continue
		}
		k := soloKey{r.Spec, r.Threads, r.Iters, r.Meter}
		spans := idx[k]
		if j := slices.IndexFunc(spans, func(s placementSpan) bool { return s.placement == r.Placement }); j >= 0 {
			spans[j].last = i
		} else {
			idx[k] = append(spans, placementSpan{r.Placement, i, i})
		}
	}
	return idx
}

// baseline picks the solo result measuring the work k, preferring, in
// store order, the first result at the co-run's own placement, then the
// last unpinned one ("none"), then the last at any other placement. It
// returns nil when no solo result measured k.
func (idx soloIndex) baseline(results []harness.Result, k soloKey, placement harness.Placement) *harness.Result {
	none, other := -1, -1
	for _, s := range idx[k] {
		switch s.placement {
		case placement:
			return &results[s.first]
		case harness.PlaceNone:
			none = s.last
		default:
			other = max(other, s.last)
		}
	}
	pick := none
	if pick < 0 {
		pick = other
	}
	if pick < 0 {
		return nil
	}
	return &results[pick]
}

// Interferences derives interference metrics for every co-run in the
// dataset that has solo baselines for both of its specs. Co-runs without
// complete baselines are skipped. Output order is deterministic.
func Interferences(results []harness.Result) []Interference {
	var out []Interference
	solos := indexSolos(results)
	for i := range results {
		r := &results[i]
		if !r.IsCoRun() || r.TimeA == nil || r.TimeB == nil {
			continue
		}
		a := solos.baseline(results, soloKey{r.Spec, r.Threads, r.Iters, r.Meter}, r.Placement)
		b := solos.baseline(results, soloKey{r.SpecB, r.ThreadsB, r.ItersB, r.Meter}, r.Placement)
		if a == nil || b == nil || a.TimeS.Mean <= 0 || b.TimeS.Mean <= 0 {
			continue
		}
		soloE := a.EnergyJ.Mean + b.EnergyJ.Mean
		inf := Interference{
			SpecA:         r.Spec,
			SpecB:         r.SpecB,
			ThreadsA:      r.Threads,
			ThreadsB:      r.ThreadsB,
			Placement:     string(r.Placement),
			SlowdownA:     r.TimeA.Mean / a.TimeS.Mean,
			SlowdownB:     r.TimeB.Mean / b.TimeS.Mean,
			CorunEnergyJ:  r.EnergyJ.Mean,
			SoloEnergyJ:   soloE,
			ExcessEnergyJ: r.EnergyJ.Mean - soloE,
			BaselineA:     string(a.Placement),
			BaselineB:     string(b.Placement),
		}
		if soloE > 0 {
			inf.ExcessEnergyFrac = inf.ExcessEnergyJ / soloE
		}
		out = append(out, inf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SpecA != out[j].SpecA {
			return out[i].SpecA < out[j].SpecA
		}
		if out[i].SpecB != out[j].SpecB {
			return out[i].SpecB < out[j].SpecB
		}
		if out[i].ThreadsA != out[j].ThreadsA {
			return out[i].ThreadsA < out[j].ThreadsA
		}
		return out[i].Placement < out[j].Placement
	})
	return out
}
