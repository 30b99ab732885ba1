package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"energybench/internal/adapt"
	"energybench/internal/bench"
	"energybench/internal/campaign"
	"energybench/internal/extwork"
	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/model"
	"energybench/internal/perf"
	"energybench/internal/store"
)

// tracedPass is what one traced pass reports besides its spans: the work
// it completed and the wall time of the phase that completed it, from which
// the traced run computes its own trials_per_s.
type tracedPass struct {
	trials   int
	dispatch time.Duration
}

type layerMetric struct{ name, unit string }

// layerTimings are the per-layer timings, each reported as <name>.p50 and
// <name>.tail; the tail's percentile and sample count go to the trace
// summary file. A workload that never enters a layer reports 0 for it.
func layerTimings() []layerMetric {
	out := []layerMetric{
		{"campaign.plan_ms", "ms"}, {"store.keys_ms", "ms"}, {"store.prior_query_ms", "ms"},
		{"store.append_us", "us"}, {"store.query_ms", "ms"},
	}
	for _, s := range bench.Catalog() {
		out = append(out, layerMetric{"bench.ws_build_ms." + s.Name, "ms"})
	}
	for _, s := range bench.Catalog() {
		out = append(out, layerMetric{"bench.kernel_ns_per_iter." + s.Name, "ns"})
	}
	return append(out,
		layerMetric{"meter.read_us", "us"}, layerMetric{"meter.sampler_us", "us"}, layerMetric{"perf.session_us", "us"},
		layerMetric{"harness.execute_ms", "ms"}, layerMetric{"harness.measured_ms", "ms"}, layerMetric{"harness.self_ms", "ms"},
		layerMetric{"harness.sink_us", "us"}, layerMetric{"extwork.execute_ms", "ms"}, layerMetric{"extwork.lifecycle_ms", "ms"},
		layerMetric{"harness.subprocess_ms", "ms"}, layerMetric{"harness.spawn_overhead_ms", "ms"}, layerMetric{"adapt.round_ms", "ms"},
		layerMetric{"model.fit_ms", "ms"}, layerMetric{"model.marginals_ms", "ms"}, layerMetric{"model.validate_ms", "ms"},
		layerMetric{"model.roofline_ms", "ms"}, layerMetric{"model.interference_ms", "ms"},
		layerMetric{"fleet.submit_ms", "ms"}, layerMetric{"fleet.lease_ms", "ms"}, layerMetric{"fleet.ingest_ms", "ms"},
		layerMetric{"fleet.batch_ms", "ms"},
	)
}

// layerValues are the per-layer counts and ratios, each reported as the
// median of its per-pass (or per-trial) samples.
var layerValues = []layerMetric{
	{"store.bytes_per_record", "B"}, {"store.add_records_per_s", "1/s"}, {"meter.reads_per_trial", "count"},
	{"harness.alloc_kb_per_trial", "KB"}, {"harness.envelope_bytes", "B"}, {"harness.slot_busy_share", "share"},
	{"adapt.rounds", "count"}, {"model.observations", "count"}, {"fleet.empty_lease_share", "share"},
	{"fleet.retries", "share"}, {"unattributed_share", "share"}, {"trace.overhead_share", "share"},
	// Reference-only numbers for later issues (workspace reuse, the affinity
	// leak); nothing gates them.
	{"bench.ws_build_iqr_share.chase-l3", "share"}, {"bench.ws_build_iqr_share.chase-dram", "share"},
	{"harness.alloc_kb_per_trial.chase-dram", "KB"}, {"harness.pinned_leak_cpus", "count"},
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// minTracedPasses is the least number of traced passes a run makes.
const minTracedPasses = 3

// measureTraced alternates untraced CLI passes with traced passes for the
// budget (after one untimed warm-up of each), then reports every per-layer
// metric. The traced passes' own trials_per_s against the CLI passes' is
// the tracing overhead. Spans go to trace.ndjson and the tail details to
// trace-summary.json in the run's scratch directory.
func measureTraced(ctx context.Context, w workload, name, dir string, budget time.Duration) (*report, error) {
	if _, _, err := w.pass(ctx); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	if _, err := w.traced(ctx, newTracer()); err != nil {
		return nil, fmt.Errorf("warm-up traced pass: %w", err)
	}
	tr := newTracer()
	var untraced, traced []float64
	var total ops
	start := time.Now()
	for n := 0; n < minTracedPasses || time.Since(start) < budget; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		vals, o, err := w.pass(ctx)
		total.attempted += o.attempted
		total.failed += o.failed
		if err != nil {
			total.failed++
			fmt.Fprintf(os.Stderr, "perfbench: pass %d: %v\n", n+1, err)
		} else {
			untraced = append(untraced, vals(asMeasured)["trials_per_s"])
		}
		tp, err := w.traced(ctx, tr)
		total.attempted++
		if err != nil {
			total.failed++
			fmt.Fprintf(os.Stderr, "perfbench: traced pass %d: %v\n", n+1, err)
			continue
		}
		traced = append(traced, float64(tp.trials)/tp.dispatch.Seconds())
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return nil, errors.New("no pass succeeded")
	}
	if r, ok := w.(interface {
		reference(context.Context, *tracer) error
	}); ok {
		if err := r.reference(ctx, tr); err != nil {
			return nil, fmt.Errorf("reference measurements: %w", err)
		}
	}

	rootDur, rootSelf, selfShares := tr.selfTimes()
	if rootDur > 0 {
		tr.record("unattributed_share", float64(rootSelf)/float64(rootDur))
	}
	tr.record("trace.overhead_share", median(untraced)/median(traced)-1)
	for _, spec := range []string{"chase-l3", "chase-dram"} {
		if xs := tr.vals["bench.ws_build_ms."+spec]; len(xs) > 0 {
			tr.record("bench.ws_build_iqr_share."+spec, iqrShare(xs))
		}
	}

	type tailInfo struct {
		P50     float64 `json:"p50"`
		Tail    float64 `json:"tail"`
		TailPct float64 `json:"tail_pct"`
		N       int     `json:"n"`
		Unit    string  `json:"unit"`
	}
	summary := struct {
		Workload    string              `json:"workload"`
		Passes      int                 `json:"traced_passes"`
		UntracedTPS float64             `json:"untraced_trials_per_s"`
		TracedTPS   float64             `json:"traced_trials_per_s"`
		Timings     map[string]tailInfo `json:"timings"`
		SelfShares  map[string]float64  `json:"self_time_share"`
	}{Workload: name, Passes: len(traced), UntracedTPS: median(untraced), TracedTPS: median(traced),
		Timings: map[string]tailInfo{}, SelfShares: selfShares}

	rep := &report{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metric{}}
	for _, m := range layerTimings() {
		xs := tr.vals[m.name]
		tv, pct := tail(xs)
		rep.Metrics[m.name+".p50"] = metric{Value: median(xs), Unit: m.unit}
		rep.Metrics[m.name+".tail"] = metric{Value: tv, Unit: m.unit}
		if len(xs) > 0 {
			summary.Timings[m.name] = tailInfo{P50: median(xs), Tail: tv, TailPct: pct, N: len(xs), Unit: m.unit}
		}
	}
	for _, m := range layerValues {
		rep.Metrics[m.name] = metric{Value: median(tr.vals[m.name]), Unit: m.unit}
	}
	if err := tr.writeSpans(filepath.Join(dir, "trace.ndjson")); err != nil {
		return nil, err
	}
	if err := writeJSONFile(filepath.Join(dir, "trace-summary.json"), summary); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced passes; untraced %.4g vs traced %.4g trials/s; unattributed %.3f; spans in %s\n",
		len(traced), median(untraced), median(traced), rep.Metrics["unattributed_share"].Value, filepath.Join(dir, "trace.ndjson"))
	return rep, nil
}

// restoreHistory gives a traced sweep the same fresh history store the CLI
// pass starts from; it runs before the pass's root span.
func (s *sweep) restoreHistory() error {
	if err := os.RemoveAll(s.store); err != nil {
		return err
	}
	var o ops
	if _, err := s.ingest(&o, s.store, s.history, s.histN); err != nil {
		return err
	}
	if o.failed > 0 {
		return errors.New("restoring the history store failed")
	}
	return nil
}

// newMockMeter builds the campaign's mock meter, planted model included.
func newMockMeter(watts float64, modelSpec string, noise float64) (*meter.Mock, error) {
	m := meter.NewMock(watts)
	planted, err := meter.ParseMockModel(modelSpec)
	if err != nil {
		return nil, err
	}
	m.ModelW, m.NoiseW = planted, noise
	return m, nil
}

func isExtern(t harness.Trial) bool { return t.Extern != nil }

// traced runs the sweep through the packages the way `run --campaign`
// does, with spans around campaign planning, the resume key scan, the prior
// query, every Execute (and meter read), every sink Consume and the
// planner's rounds.
func (s *sweep) traced(ctx context.Context, tr *tracer) (tracedPass, error) {
	if err := s.restoreHistory(); err != nil {
		return tracedPass{}, err
	}
	root, endRoot := tr.begin("sweep", 0, s.campaign)
	defer endRoot()
	ctx = withSpan(ctx, root)
	var c *campaign.Campaign
	var trials []harness.Trial
	err := tr.timed("campaign.plan_ms", root, func() (err error) {
		if c, err = campaign.Load(s.campaign); err == nil {
			trials, err = c.Plan()
		}
		return err
	})
	if err != nil {
		return tracedPass{}, err
	}
	var keys map[string]bool
	if err := tr.timed("store.keys_ms", root, func() error {
		st, err := store.Open(s.store)
		if err != nil {
			return err
		}
		defer st.Close()
		keys, err = st.Keys()
		return err
	}); err != nil {
		return tracedPass{}, err
	}
	var priorKeys []string
	trials, _ = harness.FilterTrials(trials, func(t harness.Trial) bool {
		k := t.Key(c.Meter)
		if keys[k] {
			priorKeys = append(priorKeys, k)
		}
		return keys[k]
	})
	if len(trials) != len(s.runKeys) {
		return tracedPass{}, fmt.Errorf("resume left %d trials, want %d", len(trials), len(s.runKeys))
	}

	start := time.Now()
	// Like the CLI: the store sink always, the result array on stdout only
	// for an exhaustive sweep (an adaptive one prints its planner report).
	sinks := harness.MultiSink{&tracedSink{inner: store.NewSink(c.Store), tr: tr, metric: "store.append_us", parent: root}}
	if s.subprocess {
		err = s.tracedPlanner(ctx, tr, root, c, trials, priorKeys, sinks)
	} else {
		sinks = append(sinks, &tracedSink{inner: harness.NewJSONArraySink(io.Discard), tr: tr, metric: "harness.sink_us", parent: root})
		err = runInProcess(ctx, tr, root, c, trials, sinks)
	}
	_, endClose := tr.begin("store.close", root, "")
	if cerr := sinks.Close(); err == nil {
		err = cerr
	}
	endClose()
	dispatch := time.Since(start)
	if err != nil {
		return tracedPass{}, err
	}
	if !s.subprocess {
		if err := probeLayers(tr, root, c, trials); err != nil {
			return tracedPass{}, err
		}
	}
	return tracedPass{trials: len(trials), dispatch: dispatch}, nil
}

// runInProcess is the default in-process path: the extern executor over a
// traced in-process executor under the serial runner.
func runInProcess(ctx context.Context, tr *tracer, root int64, c *campaign.Campaign, trials []harness.Trial, sinks harness.ResultSink) error {
	m, err := newMockMeter(*c.MockWatts, c.MockModel, *c.MockNoiseW)
	if err != nil {
		return err
	}
	tm := &tracedMeter{EnergyMeter: m, tr: tr}
	kernel := &tracedExec{inner: &harness.InProcess{Meter: tm}, tr: tr, name: "harness.execute", meter: tm, allocs: true,
		done: func(_ harness.Trial, res harness.Result, d time.Duration) {
			tr.record("harness.execute_ms", ms(d))
			tr.record("harness.measured_ms", measuredMS(res))
			tr.record("harness.self_ms", ms(d)-measuredMS(res))
		}}
	exec := &tracedExec{inner: &extwork.ExternExecutor{Meter: tm, Fallback: kernel}, tr: tr, name: "extwork.execute", meter: tm, only: isExtern,
		done: func(_ harness.Trial, res harness.Result, d time.Duration) {
			tr.record("extwork.execute_ms", ms(d))
			tr.record("extwork.lifecycle_ms", ms(d)-measuredMS(res))
		}}
	id, end := tr.begin("harness.dispatch", root, "")
	err = (&harness.Runner{Executor: exec}).RunPlan(withSpan(ctx, id), trials, sinks)
	end()
	tr.record("meter.reads_per_trial", float64(tm.reads.Load())/float64(len(trials)))
	return err
}

// tracedPlanner is the subprocess path: the active planner over the
// core-leasing scheduler over traced worker-child executes.
func (s *sweep) tracedPlanner(ctx context.Context, tr *tracer, root int64, c *campaign.Campaign, trials []harness.Trial, priorKeys []string, sinks harness.ResultSink) error {
	var prior []harness.Result
	if err := tr.timed("store.prior_query_ms", root, func() error {
		st, err := store.Open(s.store)
		if err != nil {
			return err
		}
		defer st.Close()
		for rec, err := range st.Query(store.Filter{Keys: priorKeys}) {
			if err != nil {
				return err
			}
			prior = append(prior, rec.Result)
		}
		sort.Slice(prior, func(i, j int) bool { return harness.ResultKey(prior[i]) < harness.ResultKey(prior[j]) })
		return nil
	}); err != nil {
		return err
	}
	timeout, err := c.Timeout()
	if err != nil {
		return err
	}
	args := []string{"worker-trial", "--meter=" + c.Meter, fmt.Sprintf("--mock-watts=%g", *c.MockWatts),
		"--mock-model=" + c.MockModel, fmt.Sprintf("--mock-noise=%g", *c.MockNoiseW)}
	var busy atomic.Int64
	exec := &tracedExec{inner: &harness.Subprocess{Binary: s.cli.bin, Args: args, Env: []string{"ENERGYBENCH_WORKER=1"}, Timeout: timeout},
		tr: tr, name: "harness.subprocess",
		done: func(t harness.Trial, res harness.Result, d time.Duration) {
			tr.record("harness.subprocess_ms", ms(d))
			tr.record("harness.spawn_overhead_ms", ms(d)-measuredMS(res))
			tj, _ := json.Marshal(t) // both encodings succeeded inside the executor already
			rj, _ := json.Marshal(harness.WorkerEnvelope{V: harness.WorkerProtocolVersion, Result: &res})
			tr.record("harness.envelope_bytes", float64(len(tj)+len(rj)))
			busy.Add(int64(d))
		}}
	d := &tracedDispatcher{inner: &harness.Scheduler{Executor: exec, Parallel: *c.Parallel}, tr: tr, parent: root, lastEnd: tr.now()}
	start := time.Now()
	cfg, _ := c.AdaptConfig()
	rep, err := (&adapt.Planner{Cfg: cfg, Dispatch: d}).Run(ctx, trials, prior, sinks)
	d.gap()
	wall := time.Since(start)
	if err != nil {
		return err
	}
	if rep.RanTrials != len(trials) {
		return fmt.Errorf("planner ran %d of %d trials", rep.RanTrials, len(trials))
	}
	tr.record("adapt.rounds", float64(d.calls))
	tr.record("harness.slot_busy_share", float64(busy.Load())/(float64(wall)*float64(*c.Parallel)))
	return nil
}

// probeLayers times the layers the executor calls internally, by calling
// them directly: one sampler Start→Stop and one mock perf session per
// executed kernel trial, and workspace builds plus single kernel calls for
// the specs the sweep runs.
func probeLayers(tr *tracer, root int64, c *campaign.Campaign, trials []harness.Trial) error {
	m := meter.NewMock(*c.MockWatts)
	am := perf.NewMock(perf.DefaultEvents())
	every, err := c.Sampling()
	if err != nil {
		return err
	}
	for _, t := range trials {
		if t.Extern != nil {
			continue
		}
		if err := tr.timed("meter.sampler_us", root, func() error {
			r, err := m.Read()
			if err != nil {
				return err
			}
			_, err = (&meter.Sampler{Meter: m, Interval: every}).Start(r).Stop()
			return err
		}); err != nil {
			return err
		}
		if err := tr.timed("perf.session_us", root, func() error {
			sess, err := am.OpenThread(-1, string(t.Spec.Component))
			if err != nil {
				return err
			}
			defer sess.Close()
			if err := sess.Start(); err != nil {
				return err
			}
			_, err = sess.Stop()
			return err
		}); err != nil {
			return err
		}
	}
	for _, name := range timedSpecs {
		probeSpec(tr, root, mustSpec(name), 3)
	}
	return nil
}

// probeSpec times the given number of workspace builds of spec, then three
// kernel calls of iters/200 iterations on the last workspace.
func probeSpec(tr *tracer, root int64, spec bench.Spec, builds int) {
	var ws *bench.Workspace
	for i := 0; i < builds; i++ {
		_ = tr.timed("bench.ws_build_ms."+spec.Name, root, func() error {
			ws = bench.NewWorkspace(spec, uint64(i)*0x9e3779b9+12345)
			return nil
		})
	}
	iters := max(1, spec.Iters/200)
	for i := 0; i < 3; i++ {
		_, end := tr.begin("bench.kernel", root, spec.Name)
		v := spec.Kernel(ws, iters)
		d := end()
		atomic.AddUint64(&bench.Sink, v)
		tr.record("bench.kernel_ns_per_iter."+spec.Name, float64(d.Nanoseconds())/float64(iters))
	}
}

// reference takes sweep-inproc's reference-only numbers once per traced
// run, under a root span of their own so they stay out of the sweep's
// breakdown: chase-l3 and chase-dram workspace builds and kernel calls, one
// chase-dram trial's heap allocation, and how many distinct CPUs a fresh
// goroutine's scatter walk sees after one pinned in-process trial. The
// pinned trial leaves pinned OS threads behind in this process, so it runs
// last.
func (s *sweep) reference(ctx context.Context, tr *tracer) error {
	if s.subprocess {
		return nil
	}
	root, endRoot := tr.begin("reference", 0, "")
	defer endRoot()
	probeSpec(tr, root, mustSpec("chase-l3"), 12)
	probeSpec(tr, root, mustSpec("chase-dram"), 6)

	exec := &tracedExec{inner: &harness.InProcess{Meter: meter.NewMock(s.g.p.StaticW)}, tr: tr, name: "harness.execute"}
	ctx = withSpan(ctx, root)
	dram := mustSpec("chase-dram")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := exec.Execute(ctx, harness.Trial{Spec: dram, Threads: 1, Placement: harness.PlaceNone,
		Iters: scaleIters(dram.Iters, 0.01), MinReps: 1, MaxReps: 1}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	tr.record("harness.alloc_kb_per_trial.chase-dram", float64(after.TotalAlloc-before.TotalAlloc)/1024)

	n := runtime.NumCPU()
	if _, err := exec.Execute(ctx, harness.Trial{Spec: mustSpec("int-alu"), Threads: n, Placement: harness.PlaceScatter,
		Iters: 1000, MinReps: 1, MaxReps: 1}); err != nil {
		return err
	}
	// The fewest distinct CPUs any of several fresh goroutines sees: a
	// goroutine landing on a leaked one-CPU thread sees one.
	fewest := n
	for i := 0; i < 8; i++ {
		ch := make(chan []int, 1)
		go func() { ch <- harness.CPUAssignment(harness.PlaceScatter, n) }()
		seen := map[int]bool{}
		for _, c := range <-ch {
			seen[c] = true
		}
		fewest = min(fewest, len(seen))
	}
	tr.record("harness.pinned_leak_cpus", float64(fewest))
	return nil
}

// traced runs the store-analyze session through the store and model
// packages the way `store query --keys`, `store add`, `analyze --validate
// --roofline` and `compare` do.
func (s *storeAnalyze) traced(ctx context.Context, tr *tracer) (tracedPass, error) {
	if err := copyDir(s.template, s.work); err != nil {
		return tracedPass{}, err
	}
	root, endRoot := tr.begin("store-analyze", 0, s.work)
	defer endRoot()
	start := time.Now()
	if err := tr.timed("store.keys_ms", root, func() error {
		st, err := store.Open(s.work)
		if err != nil {
			return err
		}
		defer st.Close()
		keys, err := st.Keys()
		if err == nil && len(keys) != s.cs.unique {
			err = fmt.Errorf("corpus holds %d configurations, want %d", len(keys), s.cs.unique)
		}
		return err
	}); err != nil {
		return tracedPass{}, err
	}

	var batch []harness.Result
	_, endDecode := tr.begin("cli.decode", root, "")
	err := decodeRecords(s.batch, func(r store.Record) { batch = append(batch, r.Result) })
	endDecode()
	if err != nil {
		return tracedPass{}, err
	}
	_, endAdd := tr.begin("store.add", root, "")
	st, err := store.Open(s.work)
	if err != nil {
		return tracedPass{}, err
	}
	n, err := st.Append(batch)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	d := endAdd()
	if err != nil {
		return tracedPass{}, err
	}
	tr.record("store.add_records_per_s", float64(n)/d.Seconds())
	size, err := dirSize(s.work)
	if err != nil {
		return tracedPass{}, err
	}
	tr.record("store.bytes_per_record", float64(size)/float64(len(s.cs.records)+len(batch)))

	results, err := queryAll(tr, root, s.work)
	if err != nil {
		return tracedPass{}, err
	}
	var obs []model.Observation
	var fit *model.Fit
	var rep model.Report
	_ = tr.timed("model.fit_ms", root, func() (err error) {
		obs = model.FromResults(results)
		fit, err = model.FitPower(obs)
		return err
	})
	if fit == nil {
		return tracedPass{}, errors.New("the corpus fit failed")
	}
	tr.record("model.observations", float64(len(obs)))
	rep.Fit = fit
	_ = tr.timed("model.marginals_ms", root, func() error { rep.Marginals = model.Marginals(results); return nil })
	if err := tr.timed("model.validate_ms", root, func() (err error) {
		rep.Validation, err = model.Validate(fit, model.ActivityNominal, results)
		return err
	}); err != nil {
		return tracedPass{}, err
	}
	if err := tr.timed("model.roofline_ms", root, func() (err error) {
		rep.Roofline, err = model.BuildRoofline(results)
		return err
	}); err != nil {
		return tracedPass{}, err
	}
	if err := encodeDiscard(tr, root, rep); err != nil {
		return tracedPass{}, err
	}

	results, err = queryAll(tr, root, s.work)
	if err != nil {
		return tracedPass{}, err
	}
	var infs []model.Interference
	_ = tr.timed("model.interference_ms", root, func() error { infs = model.Interferences(results); return nil })
	if len(infs) != s.cs.coruns {
		return tracedPass{}, fmt.Errorf("interferences: %d, want %d", len(infs), s.cs.coruns)
	}
	if err := encodeDiscard(tr, root, infs); err != nil {
		return tracedPass{}, err
	}
	return tracedPass{trials: s.finalN, dispatch: time.Since(start)}, nil
}

// queryAll is the analysis read path: a full deduplicated query.
func queryAll(tr *tracer, root int64, path string) ([]harness.Result, error) {
	var out []harness.Result
	err := tr.timed("store.query_ms", root, func() error {
		st, err := store.Open(path)
		if err != nil {
			return err
		}
		defer st.Close()
		for rec, err := range st.Query(store.Filter{}) {
			if err != nil {
				return err
			}
			out = append(out, rec.Result)
		}
		return nil
	})
	return out, err
}

// encodeDiscard is the CLI's output step: indented JSON, here discarded.
func encodeDiscard(tr *tracer, root int64, v any) error {
	_, end := tr.begin("cli.encode", root, "")
	defer end()
	enc := json.NewEncoder(io.Discard)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func decodeRecords(path string, each func(store.Record)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec store.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("decoding %s: %w", path, err)
		}
		each(rec)
	}
	return sc.Err()
}

func dirSize(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// traced runs the fleet job with the coordinator and agent in this
// process: a middleware spans every coordinator handler, a round tripper
// every agent request, and a wrapper every batch the agent runs.
func (f *fleetJob) traced(ctx context.Context, tr *tracer) (tp tracedPass, err error) {
	data := f.path("coord-traced")
	if err := os.RemoveAll(data); err != nil {
		return tp, err
	}
	root, endRoot := tr.begin("fleet-job", 0, "")
	defer endRoot()
	ctx = withSpan(ctx, root)
	var fc fleetCounts

	_, endSetup := tr.begin("fleet.setup", root, "")
	coord, err := fleet.NewCoordinator(fleet.Options{DataDir: data, LeaseTTL: 60 * time.Second, BatchSize: 4})
	if err != nil {
		return tp, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return tp, err
	}
	url := "http://" + ln.Addr().String()
	srv := &http.Server{Handler: tr.middleware(coord.Handler(), root, &fc)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	host := fleet.LocalHost("perfbench-agent")
	host.CPUs = 2
	transport := http.DefaultTransport.(*http.Transport).Clone()
	agent := &fleet.Agent{Coordinator: url, Host: host, Runner: &tracedRunner{inner: tracedBatchRunner(tr), tr: tr},
		Poll: agentPoll, Client: &http.Client{Timeout: 30 * time.Second, Transport: &tracedTransport{base: transport, tr: tr}}}
	// The agent's whole run is one span, so its own loop (envelope
	// encoding, idle polls) is attributed to the fleet layer.
	agentSpan, endAgent := tr.begin("fleet.agent", root, host.Name)
	actx, stopAgent := context.WithCancel(withSpan(ctx, agentSpan))
	agentDone := make(chan error, 1)
	go func() {
		err := agent.Run(actx)
		endAgent()
		agentDone <- err
	}()
	defer func() {
		_, endTeardown := tr.begin("fleet.teardown", root, "")
		defer endTeardown()
		stopAgent()
		aerr := <-agentDone
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := srv.Shutdown(shctx)
		<-served
		transport.CloseIdleConnections()
		f.client.CloseIdleConnections()
		if err == nil {
			err = errors.Join(aerr, serr, coord.Close())
		}
	}()
	for deadline := time.Now().Add(30 * time.Second); len(coord.Agents()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			endSetup()
			return tp, errors.New("the agent never registered")
		}
	}
	endSetup()

	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := f.do(ctx, http.MethodPost, url+"/jobs", f.campaign, http.StatusCreated, &sub); err != nil {
		return tp, err
	}
	accepted := time.Now()
	var st fleet.JobStatus
	for deadline := accepted.Add(120 * time.Second); ; time.Sleep(fleetPoll) {
		if err := f.do(ctx, http.MethodGet, url+"/jobs/"+sub.JobID, nil, http.StatusOK, &st); err != nil {
			return tp, err
		}
		if st.Finished {
			break
		}
		if time.Now().After(deadline) {
			return tp, fmt.Errorf("job unfinished after 120 s: %d/%d done", st.Done, st.Trials)
		}
	}
	tp = tracedPass{trials: st.Done, dispatch: time.Since(accepted)}
	if st.Done != len(f.planKeys) || st.Failed > 0 {
		return tp, fmt.Errorf("job: %d/%d done, %d failed", st.Done, len(f.planKeys), st.Failed)
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.leases > 0 {
		tr.record("fleet.empty_lease_share", float64(fc.emptyLeases)/float64(fc.leases))
	}
	tr.record("fleet.retries", float64(fc.duplicates+fc.stale+st.Redispatched)/float64(st.Done))
	return tp, nil
}

// tracedBatchRunner is the agent's in-process batch runner (the CLI's
// local runner for in-process campaigns) over a traced executor.
func tracedBatchRunner(tr *tracer) fleet.BatchRunner {
	return fleet.BatchRunnerFunc(func(ctx context.Context, b fleet.Batch, sink harness.ResultSink) error {
		for i := range b.Trials {
			if err := graftKernel(&b.Trials[i].Spec); err != nil {
				return err
			}
			if b.Trials[i].SpecB != nil {
				if err := graftKernel(b.Trials[i].SpecB); err != nil {
					return err
				}
			}
		}
		ec := b.Exec
		m, err := newMockMeter(ec.MockWatts, ec.MockModel, ec.MockNoiseW)
		if err != nil {
			return err
		}
		tm := &tracedMeter{EnergyMeter: m, tr: tr}
		exec := &tracedExec{inner: &harness.InProcess{Meter: tm}, tr: tr, name: "harness.execute", meter: tm,
			done: func(_ harness.Trial, _ harness.Result, d time.Duration) { tr.record("harness.execute_ms", ms(d)) }}
		return (&harness.Scheduler{Executor: exec, Parallel: ec.Parallel}).RunPlan(ctx, b.Trials, sink)
	})
}

// graftKernel restores the kernel function a trial loses on the wire.
func graftKernel(spec *bench.Spec) error {
	cat, err := bench.Lookup(spec.Name)
	if err != nil {
		return err
	}
	spec.Kernel = cat.Kernel
	return nil
}
