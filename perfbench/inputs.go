package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"energybench/internal/bench"
	"energybench/internal/campaign"
	"energybench/internal/extwork"
	"energybench/internal/harness"
	"energybench/internal/perf"
	"energybench/internal/stats"
	"energybench/internal/store"
)

// The timed workloads' shape is fixed; the seed varies only values (the
// planted model, the history's contents, the planner seed), so every seed
// costs the same amount of work. chase-l3 and chase-dram stay out of every
// timed sweep: their workspace builds take 5–160 ms and dominate whatever
// they are part of (NOTES.md).
var (
	timedSpecs = []string{"int-alu", "fp-mac", "chase-l1", "chase-l2", "mixed-50"}
	timedPairs = []string{"int-alu+chase-l1", "fp-mac+chase-l2"}
	// corpusSpecs cover the five components the store-analyze corpus is
	// planted over; its records are synthetic, so chase-dram costs nothing.
	corpusSpecs = []string{"int-alu", "fp-mac", "chase-l1", "chase-l2", "chase-dram"}
	placements  = []harness.Placement{harness.PlaceNone, harness.PlaceCompact, harness.PlaceScatter}
)

// Iteration scales of the timed sweeps: small enough that harness work, not
// kernel work, dominates each trial.
var (
	inprocScales  = scaleRange(0.001, 0.0005, 12)
	subprocScales = scaleRange(0.001, 0.0005, 4)
	fleetScales   = scaleRange(0.001, 0.0005, 36)
	// historyScales are the other campaigns' iteration scales in the sweeps'
	// history stores.
	historyScales = scaleRange(0.05, 0.05, 12)
)

// scaleRange is n iteration scales from first in steps of step, rounded so
// they print (and key) cleanly.
func scaleRange(first, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Round((first+float64(i)*step)*1e6) / 1e6
	}
	return out
}

// nsPerIter is a plausible per-iteration time of each catalog kernel, used
// only to give synthetic records realistic wall times.
var nsPerIter = map[string]float64{
	"int-alu": 1.2, "fp-mac": 1.6, "chase-l1": 1.1, "chase-l2": 3.5,
	"chase-l3": 9, "chase-dram": 95, "mixed-50": 2.6,
}

// planted is the linear power model the mock meter draws and the synthetic
// records follow: static watts plus a per-thread coefficient per component,
// with a deterministic noise amplitude.
type planted struct {
	StaticW float64
	CoeffW  map[bench.Component]float64
	NoiseW  float64
}

func newPlanted(rng *rand.Rand) planted {
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	return planted{
		StaticW: u(30, 45),
		CoeffW: map[bench.Component]float64{
			bench.CompIntALU: u(1.5, 3),
			bench.CompFPU:    u(3, 6),
			bench.CompL1:     u(1, 2),
			bench.CompL2:     u(1.5, 3),
			bench.CompL3:     u(2, 4),
			bench.CompDRAM:   u(6, 10),
			bench.CompMixed:  u(2, 4),
		},
		NoiseW: u(0.1, 0.3),
	}
}

// mockModel renders the coefficients as a campaign mock_model string.
func (p planted) mockModel() string {
	var parts []string
	for c, w := range p.CoeffW {
		parts = append(parts, fmt.Sprintf("%s:%.4f", c, w))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// gen draws synthetic store records from a planted model.
type gen struct {
	rng *rand.Rand
	p   planted
	at  time.Time
}

func newGen(seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	return &gen{rng: rng, p: newPlanted(rng), at: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (g *gen) jitter(amp float64) float64 { return 1 + amp*(2*g.rng.Float64()-1) }

// config is one configuration of a synthetic record.
type config struct {
	spec      string
	specB     string
	threads   int
	placement harness.Placement
	iters     int
	itersB    int
	workload  string
	comps     map[bench.Component]float64
}

// kernelConfig is a solo (specB empty) or co-run configuration at an
// iteration scale.
func kernelConfig(spec, specB string, threads int, pl harness.Placement, scale float64) config {
	c := config{spec: spec, specB: specB, threads: threads, placement: pl, iters: scaleIters(mustSpec(spec).Iters, scale)}
	if specB != "" {
		c.itersB = scaleIters(mustSpec(specB).Iters, scale)
	}
	return c
}

// result is the configuration's key fields as a Result shell.
func (c config) result() harness.Result {
	if c.workload != "" {
		return harness.Result{Spec: c.workload, Threads: c.threads, Iters: 1, Placement: c.placement,
			Meter: "mock", Workload: c.workload, WorkloadComponents: c.comps}
	}
	a := mustSpec(c.spec)
	r := harness.Result{Spec: a.Name, Component: a.Component, Threads: c.threads,
		Iters: c.iters, Placement: c.placement, Meter: "mock"}
	if c.specB != "" {
		b := mustSpec(c.specB)
		r.SpecB, r.ComponentB, r.ThreadsB, r.ItersB = b.Name, b.Component, c.threads, c.itersB
	}
	return r
}

// record draws one measurement of c with reps samples; withCounters adds a
// mock-rate activity vector.
func (g *gen) record(c config, reps int, withCounters bool) store.Record {
	r := c.result()
	r.Domains = []string{"mock-package-0"}
	load := map[bench.Component]float64{}
	var baseS float64
	switch {
	case c.workload != "":
		for comp, w := range c.comps {
			load[comp] += w * float64(c.threads)
		}
		baseS = 0.1
	default:
		load[r.Component] += float64(r.Threads)
		baseS = float64(r.Iters) * nsPerIter[r.Spec] * 1e-9
		if r.IsCoRun() {
			load[r.ComponentB] += float64(r.ThreadsB)
			baseS = max(baseS, float64(r.ItersB)*nsPerIter[r.SpecB]*1e-9) * 1.2
		}
	}
	comps := make([]string, 0, len(load))
	for comp := range load {
		comps = append(comps, string(comp))
	}
	sort.Strings(comps) // a fixed summation order keeps the inputs bit-identical per seed
	power := g.p.StaticW
	for _, comp := range comps {
		power += g.p.CoeffW[bench.Component(comp)] * load[bench.Component(comp)]
	}
	power += g.p.NoiseW * (2*g.rng.Float64() - 1)

	var energies, times, powers, timesA, timesB []float64
	for i := 0; i < reps; i++ {
		t := baseS * g.jitter(0.03)
		w := t + 20e-6
		s := harness.Sample{TimeS: t, MeterTimeS: w, PowerW: power, EnergyJ: power * w}
		s.DomainJ = []float64{s.EnergyJ}
		if r.IsCoRun() {
			s.TimeAS, s.TimeBS = t*g.jitter(0.02), t
			timesA, timesB = append(timesA, s.TimeAS), append(timesB, s.TimeBS)
		}
		r.Samples = append(r.Samples, s)
		energies, times, powers = append(energies, s.EnergyJ), append(times, t), append(powers, power)
	}
	r.EnergyJ, r.TimeS, r.PowerW = stats.Summarize(energies), stats.Summarize(times), stats.Summarize(powers)
	if r.IsCoRun() {
		ta, tb := stats.Summarize(timesA), stats.Summarize(timesB)
		r.TimeA, r.TimeB = &ta, &tb
	}
	r.EDP = r.EnergyJ.Mean * r.TimeS.Mean
	r.EDDP = r.EDP * r.TimeS.Mean
	if withCounters {
		r.Counters = g.counters(r, c)
	}
	return store.Record{V: store.SchemaVersion, Key: harness.ResultKey(r), SavedAt: g.at, Result: r}
}

// counters plants the mock backend's per-component event rates, one thread
// entry per worker thread (one process-wide entry for a workload).
func (g *gen) counters(r harness.Result, c config) *harness.Counters {
	events := perf.DefaultEvents()
	out := &harness.Counters{Backend: perf.BackendMock, Reps: len(r.Samples)}
	for _, e := range events {
		out.Events = append(out.Events, harness.CounterEvent{Event: e})
	}
	thread := func(comp string, group int) {
		th := harness.CounterThread{CPU: -1, Group: group}
		for i, e := range events {
			rate := perf.MockRate(comp, e) * g.jitter(0.01)
			th.RateHzMean = append(th.RateHzMean, rate)
			th.TotalMean = append(th.TotalMean, rate*r.TimeS.Mean)
			out.Events[i].RateHzMean += rate
			out.Events[i].TotalMean += rate * r.TimeS.Mean
		}
		out.Threads = append(out.Threads, th)
	}
	switch {
	case c.workload != "":
		best, bestW := "", -1.0
		for comp, w := range c.comps {
			if w > bestW || (w == bestW && string(comp) < best) {
				best, bestW = string(comp), w
			}
		}
		thread(best, 0)
	default:
		for i := 0; i < r.Threads; i++ {
			thread(string(r.Component), 0)
			if r.IsCoRun() {
				thread(string(r.ComponentB), 1)
			}
		}
	}
	return out
}

func mustSpec(name string) bench.Spec {
	s, err := bench.Lookup(name)
	if err != nil {
		panic(err) // the spec tables above name catalog specs only
	}
	return s
}

// scaleIters mirrors the harness's iteration scaling, so synthetic keys
// match planned ones.
func scaleIters(iters int, scale float64) int {
	return max(1, int(float64(iters)*scale))
}

// writeNDJSON writes records as one JSON document per line.
func writeNDJSON(path string, recs []store.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func ptr[T any](v T) *T { return &v }

// kernelSpaces declares one solo space and one co-run space per iteration
// scale, co-runs at one thread per side so no trial needs more than two
// CPUs.
func kernelSpaces(scales []float64, pls []string, reps, warmup int) []campaign.SpaceConfig {
	var out []campaign.SpaceConfig
	for _, s := range scales {
		out = append(out,
			campaign.SpaceConfig{Name: fmt.Sprintf("solo-%g", s), Specs: timedSpecs, Threads: []int{1, 2},
				Placements: pls, Reps: reps, Warmup: ptr(warmup), IterScal: ptr(s)},
			campaign.SpaceConfig{Name: fmt.Sprintf("corun-%g", s), Corun: timedPairs, Threads: []int{1},
				Placements: pls, Reps: reps, Warmup: ptr(warmup), IterScal: ptr(s)})
	}
	return out
}

// mockCampaign is the campaign skeleton every workload shares: the mock
// meter drawing the seed's planted model.
func (g *gen) mockCampaign(name string) campaign.Campaign {
	return campaign.Campaign{
		Name:       name,
		Meter:      "mock",
		MockWatts:  ptr(g.p.StaticW),
		MockModel:  g.p.mockModel(),
		MockNoiseW: ptr(g.p.NoiseW),
	}
}

// inprocCampaign: the default in-process path with mock counters, in-trial
// sampling, fixed reps plus one warm-up, and a few trials of the pre-built
// externstress program.
func (g *gen) inprocCampaign(storePath, stressBin string) campaign.Campaign {
	c := g.mockCampaign("perfbench-sweep-inproc")
	c.Counters = []string{"default"}
	c.CounterBackend = perf.BackendMock
	c.SampleInterval = "1ms"
	c.Executor = campaign.ExecutorInProcess
	c.Store, c.Resume = storePath, true
	c.Spaces = kernelSpaces(inprocScales, []string{"none"}, 3, 1)
	for _, ms := range []string{"2", "4"} {
		c.Workloads = append(c.Workloads, extwork.Workload{
			Name:       "stress-" + ms + "ms",
			Exec:       []string{stressBin, "-ms", ms},
			Env:        map[string]string{"THREADS": "${THREADS}"},
			Components: map[string]float64{string(bench.CompIntALU): 1},
			Threads:    []int{1, 2},
			Reps:       ptr(2),
			Timeout:    "30s",
		})
	}
	return c
}

// subprocCampaign: one worker child per trial, two at a time, pinned
// placements through the core-leasing scheduler, and the active planner with
// a budget covering the whole plan and a target it can never reach, so it
// refits between every batch and always runs every trial.
func (g *gen) subprocCampaign(storePath string, seed int64) campaign.Campaign {
	c := g.mockCampaign("perfbench-sweep-subproc")
	c.Executor = campaign.ExecutorSubprocess
	c.Parallel = ptr(2)
	c.TrialTimeout = "60s"
	c.Algo = "active"
	c.Batch = ptr(6)
	c.TargetRSE = ptr(1e-12)
	c.Seed = ptr(seed)
	c.Store, c.Resume = storePath, true
	c.Spaces = kernelSpaces(subprocScales, []string{"none", "compact", "scatter"}, 2, 1)
	c.Budget = ptr(planSize(c.Spaces))
	return c
}

// fleetCampaign: an exhaustive in-process campaign of tiny unpinned trials.
func (g *gen) fleetCampaign() campaign.Campaign {
	c := g.mockCampaign("perfbench-fleet-job")
	c.Spaces = kernelSpaces(fleetScales, []string{"none"}, 2, 0)
	return c
}

// planSize counts the trials a list of spaces expands to.
func planSize(spaces []campaign.SpaceConfig) int {
	n := 0
	for _, s := range spaces {
		n += (len(s.Specs) + len(s.Corun)) * len(s.Threads) * len(s.Placements)
	}
	return n
}

// sweepHistory builds the history store a resumed sweep (and fleet-job's
// local store) starts from: other campaigns' configurations (other
// iteration scales, wider thread counts, the chase-l3/dram levels, two
// external workloads) plus results for the first sixth of this campaign's
// own plan, so resume skips them and an adaptive planner is seeded with
// them.
func (g *gen) sweepHistory(plan []harness.Trial) []store.Record {
	var recs []store.Record
	others := append(append([]string(nil), timedSpecs...), "chase-l3", "chase-dram")
	for _, scale := range historyScales {
		for _, spec := range others {
			for _, th := range []int{1, 2, 3, 4} {
				for _, pl := range placements {
					recs = append(recs, g.record(kernelConfig(spec, "", th, pl, scale), 3, false))
				}
			}
		}
		for _, pair := range timedPairs {
			a, b, _ := strings.Cut(pair, "+")
			for _, th := range []int{1, 2} {
				recs = append(recs, g.record(kernelConfig(a, b, th, harness.PlaceNone, scale), 3, false))
			}
		}
	}
	for _, w := range []string{"history-a", "history-b"} {
		for _, th := range []int{1, 2, 4} {
			recs = append(recs, g.record(config{workload: w, threads: th, placement: harness.PlaceNone,
				comps: map[bench.Component]float64{bench.CompIntALU: 1, bench.CompL2: 0.5}}, 2, false))
		}
	}
	for _, t := range plan[:len(plan)/6] {
		c := config{spec: t.Spec.Name, threads: t.Threads, placement: t.Placement, iters: t.Iters, itersB: t.ItersB}
		if t.SpecB != nil {
			c.specB = t.SpecB.Name
		}
		rec := g.record(c, t.MinReps, false)
		if rec.Key != t.Key("mock") {
			panic(fmt.Sprintf("synthetic key %q does not match planned key %q", rec.Key, t.Key("mock")))
		}
		recs = append(recs, rec)
	}
	return recs
}

// corpus is the store-analyze input: a sharded corpus and an ingest batch
// drawn from one planted model, with the facts the checks compare against.
type corpus struct {
	records []store.Record // the corpus, duplicates included
	batch   []store.Record // the ingest batch: new and re-measured configurations
	unique  int            // distinct configurations in the corpus
	coruns  int            // distinct co-run configurations after the ingest
}

// Corpus dimensions: solo kernels over the five components × 1–4 threads ×
// three placements × corpusScales, co-runs of every spec pair at 1–2
// threads over the first corpusCorunScales scales (their solo baselines
// exist by construction), and external-workload rows. Every configuration is
// written one to three times, so dedup does real work.
var (
	corpusScales      = []float64{0.001, 0.002, 0.003, 0.005, 0.008, 0.01, 0.015, 0.02, 0.03, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5}
	corpusCorunScales = 8
	batchScales       = []float64{0.04, 0.06, 0.07}
	batchRemeasured   = 1000
)

func (g *gen) corpus() corpus {
	var cs corpus
	var solo, all []config
	for _, scale := range corpusScales {
		for _, spec := range corpusSpecs {
			for _, th := range []int{1, 2, 3, 4} {
				for _, pl := range placements {
					solo = append(solo, kernelConfig(spec, "", th, pl, scale))
				}
			}
		}
	}
	all = append(all, solo...)
	for _, scale := range corpusScales[:corpusCorunScales] {
		for i, a := range corpusSpecs {
			for _, b := range corpusSpecs[i+1:] {
				for _, th := range []int{1, 2} {
					for _, pl := range placements {
						all = append(all, kernelConfig(a, b, th, pl, scale))
						cs.coruns++
					}
				}
			}
		}
	}
	mixes := map[string]map[bench.Component]float64{
		"compute-app": {bench.CompIntALU: 0.7, bench.CompFPU: 0.3},
		"stream-app":  {bench.CompDRAM: 0.8, bench.CompIntALU: 0.2},
		"cache-app":   {bench.CompL2: 0.6, bench.CompL1: 0.4},
		"mixed-app":   {bench.CompIntALU: 0.4, bench.CompL2: 0.3, bench.CompDRAM: 0.3},
	}
	names := []string{"cache-app", "compute-app", "mixed-app", "stream-app"}
	for _, w := range names {
		for _, th := range []int{1, 2, 3, 4} {
			for _, pl := range placements {
				all = append(all, config{workload: w, threads: th, placement: pl, comps: mixes[w]})
			}
		}
	}
	cs.unique = len(all)
	for _, c := range all {
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			cs.records = append(cs.records, g.record(c, 3, true))
		}
	}
	g.rng.Shuffle(len(cs.records), func(i, j int) { cs.records[i], cs.records[j] = cs.records[j], cs.records[i] })

	for _, scale := range batchScales {
		for _, spec := range corpusSpecs {
			for _, th := range []int{1, 2, 3, 4} {
				for _, pl := range placements {
					cs.batch = append(cs.batch, g.record(kernelConfig(spec, "", th, pl, scale), 3, true))
				}
			}
		}
	}
	// Re-measure evenly spaced configurations, so the batch's make-up (and
	// so its cost) is the same for every seed.
	for i := 0; i < batchRemeasured; i++ {
		cs.batch = append(cs.batch, g.record(all[i*len(all)/batchRemeasured], 3, true))
	}
	g.rng.Shuffle(len(cs.batch), func(i, j int) { cs.batch[i], cs.batch[j] = cs.batch[j], cs.batch[i] })
	return cs
}
