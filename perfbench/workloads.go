package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/model"
	"energybench/internal/store"
)

// dryRun plans a campaign through the CLI.
func (e *env) dryRun(campaignPath string) ([]harness.Trial, error) {
	p, err := e.cli.run("run", "--campaign", campaignPath, "--dry-run")
	if err != nil {
		return nil, err
	}
	var doc struct {
		Plan []harness.Trial `json:"plan"`
	}
	if err := json.Unmarshal(p.Stdout.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decoding dry run: %w", err)
	}
	return doc.Plan, nil
}

// storeKeys reads a store's key set, optionally host-stripped.
func storeKeys(path string, stripHost bool) (map[string]bool, error) {
	st, err := store.Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	keys, err := st.Keys()
	if err != nil || !stripHost {
		return keys, err
	}
	out := make(map[string]bool, len(keys))
	for k := range keys {
		out[harness.StripHostKey(k)] = true
	}
	return out, nil
}

// diffKeys counts the keys of want absent from have (missing) and the keys
// of have absent from want (extra).
func diffKeys(want, have map[string]bool) (missing, extra int) {
	for k := range want {
		if !have[k] {
			missing++
		}
	}
	for k := range have {
		if !want[k] {
			extra++
		}
	}
	return missing, extra
}

// measuredSeconds sums the stored meter windows of the samples of the given
// configurations.
func measuredSeconds(path string, keys []string) (float64, error) {
	st, err := store.Open(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	var s float64
	for rec, err := range st.Query(store.Filter{Keys: keys}) {
		if err != nil {
			return 0, err
		}
		s += measuredMS(rec.Result) / 1e3
	}
	return s, nil
}

func countCoRuns(keys map[string]bool) int {
	n := 0
	for k := range keys {
		if kf, ok := harness.ParseKey(k); ok && kf.SpecB != "" {
			n++
		}
	}
	return n
}

// ingest runs `store add` and checks it reports every offered record.
func (e *env) ingest(o *ops, db, from string, offered int) (*proc, error) {
	p, err := e.cli.run("store", "add", "--db="+db, "--from="+from)
	if err != nil {
		return nil, err
	}
	var out struct {
		Added int `json:"added"`
	}
	if err := json.Unmarshal(p.Stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("decoding store add output: %w", err)
	}
	o.attempted += offered
	if out.Added != offered {
		o.failed += offered - min(out.Added, offered)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: store add added %d of %d records\n", out.Added, offered)
	}
	return p, nil
}

// analyzeStore runs the analysis step a user runs after producing results
// (`analyze` plus `compare`) and checks both outputs: the fit saw
// observations, and compare returned one row per stored co-run.
func (e *env) analyzeStore(o *ops, db string, coruns int, extra ...string) (*model.Report, []*proc, error) {
	a, err := e.cli.run(append([]string{"analyze", "--db=" + db}, extra...)...)
	if err != nil {
		return nil, nil, err
	}
	c, err := e.cli.run("compare", "--db="+db)
	if err != nil {
		return nil, nil, err
	}
	var rep model.Report
	if err := json.Unmarshal(a.Stdout.Bytes(), &rep); err != nil {
		return nil, nil, fmt.Errorf("decoding analyze output: %w", err)
	}
	var infs []model.Interference
	if err := json.Unmarshal(c.Stdout.Bytes(), &infs); err != nil {
		return nil, nil, fmt.Errorf("decoding compare output: %w", err)
	}
	o.check(rep.Fit != nil && rep.Observations > 0, "analyze fitted %d observations", rep.Observations)
	o.check(len(infs) == coruns, "compare returned %d co-runs, want %d", len(infs), coruns)
	return &rep, []*proc{a, c}, nil
}

func peakMB(ps ...*proc) float64 {
	var kb int64
	for _, p := range ps {
		kb = max(kb, p.usage.MaxRSSKB)
	}
	return float64(kb) / 1024
}

func walls(ps ...*proc) time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.wall()
	}
	return d
}

// sweep is sweep-inproc (default in-process executor) or sweep-subproc
// (subprocess executor under the core-leasing scheduler, active planner).
// One pass: `store add` restores the seeded history into a fresh store,
// `run --campaign` resumes against it, then `analyze` and `compare` run over
// the result.
type sweep struct {
	*env
	subprocess bool

	campaign string
	store    string
	history  string
	histN    int
	wantKeys map[string]bool // history plus the whole plan
	runKeys  []string        // the trials the run must execute
	prior    int             // planned trials the history already holds
	coruns   int
}

func (s *sweep) setup(ctx context.Context) error {
	s.campaign, s.store, s.history = s.path("campaign.json"), s.path("store"), s.path("history.ndjson")
	c := s.g.inprocCampaign(s.store, s.stress)
	if s.subprocess {
		c = s.g.subprocCampaign(s.store, s.seed)
	}
	if err := writeJSONFile(s.campaign, c); err != nil {
		return err
	}
	plan, err := s.dryRun(s.campaign) // the store does not exist yet: the whole plan
	if err != nil {
		return err
	}
	hist := s.g.sweepHistory(plan)
	if err := writeNDJSON(s.history, hist); err != nil {
		return err
	}
	s.histN = len(hist)
	s.wantKeys = map[string]bool{}
	for _, r := range hist {
		s.wantKeys[r.Key] = true
	}
	for _, t := range plan {
		k := t.Key("mock")
		if !s.wantKeys[k] {
			s.runKeys = append(s.runKeys, k)
		}
		s.wantKeys[k] = true
	}
	s.prior = len(plan) - len(s.runKeys)
	s.coruns = countCoRuns(s.wantKeys)
	return nil
}

var resumeLine = regexp.MustCompile(`^resume: skipped (\d+) already-stored trials, (\d+) to run`)

func (s *sweep) pass(ctx context.Context) (metricsAt, ops, error) {
	var o ops
	if err := os.RemoveAll(s.store); err != nil {
		return nil, o, err
	}
	add, err := s.ingest(&o, s.store, s.history, s.histN)
	if err != nil {
		return nil, o, err
	}

	var resumeAt time.Time
	toRun := -1
	p, err := s.cli.start([]string{"run", "--campaign", s.campaign}, func(line string, at time.Time) {
		if m := resumeLine.FindStringSubmatch(line); m != nil {
			resumeAt = at
			toRun, _ = strconv.Atoi(m[2])
		}
	})
	if err != nil {
		return nil, o, err
	}
	if err := p.wait(); err != nil {
		return nil, o, err
	}
	if resumeAt.IsZero() {
		return nil, o, fmt.Errorf("run printed no resume line")
	}
	o.check(toRun == len(s.runKeys), "resume left %d trials to run, want %d", toRun, len(s.runKeys))

	have, err := storeKeys(s.store, false)
	if err != nil {
		return nil, o, err
	}
	missing, extra := diffKeys(s.wantKeys, have)
	o.attempted += len(s.runKeys)
	o.failed += missing
	o.check(missing == 0 && extra == 0, "stored keys: %d missing, %d unexpected", missing, extra)
	if s.subprocess {
		var rep struct {
			PriorTrials int `json:"prior_trials"`
			RanTrials   int `json:"ran_trials"`
		}
		err := json.Unmarshal(p.Stdout.Bytes(), &rep)
		o.check(err == nil && rep.RanTrials == len(s.runKeys) && rep.PriorTrials == s.prior,
			"planner report: ran %d (want %d), prior %d (want %d), decode error %v",
			rep.RanTrials, len(s.runKeys), rep.PriorTrials, s.prior, err)
	} else {
		var results []json.RawMessage
		err := json.Unmarshal(p.Stdout.Bytes(), &results)
		o.check(err == nil && len(results) == len(s.runKeys), "run printed %d results, want %d (decode error %v)", len(results), len(s.runKeys), err)
	}
	measured, err := measuredSeconds(s.store, s.runKeys)
	if err != nil {
		return nil, o, err
	}

	_, an, err := s.analyzeStore(&o, s.store, s.coruns)
	if err != nil {
		return nil, o, err
	}
	trials, records := float64(len(s.runKeys)), float64(s.histN)
	dispatch, setup, cpu := p.End.Sub(resumeAt), resumeAt.Sub(p.Start), p.usage.CPU
	analyze, ingest, peak := walls(an...), add.wall(), peakMB(add, p, an[0], an[1])
	return func(h host) map[string]float64 {
		return map[string]float64{
			"trials_per_s": trials / h.s(dispatch),
			// Two wall times of the same pass: the slowness cancels.
			"measured_share":       measured / dispatch.Seconds(),
			"cpu_ms_per_trial":     1e3 * h.cpuS(cpu) / trials,
			"setup_s":              h.s(setup),
			"peak_rss_mb":          peak,
			"analyze_s":            h.s(analyze),
			"ingest_records_per_s": records / h.s(ingest),
		}
	}, o, nil
}

// storeAnalyze: `store query --keys`, `store add` of a seeded batch, then
// `analyze --validate --roofline` and `compare`, over a fresh copy of a
// seeded sharded corpus.
type storeAnalyze struct {
	*env

	template string
	work     string
	batch    string
	cs       corpus
	batchN   int
	batchS   float64 // Σ meter windows of the batch's samples
	finalN   int     // distinct configurations after the ingest
}

func (s *storeAnalyze) setup(ctx context.Context) error {
	s.template, s.work, s.batch = s.path("corpus-template"), s.path("corpus"), s.path("batch.ndjson")
	s.cs = s.g.corpus()
	corpusFile := s.path("corpus.ndjson")
	if err := writeNDJSON(corpusFile, s.cs.records); err != nil {
		return err
	}
	if err := writeNDJSON(s.batch, s.cs.batch); err != nil {
		return err
	}
	var o ops
	if _, err := s.ingest(&o, s.template, corpusFile, len(s.cs.records)); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("building the corpus store failed")
	}
	keys := map[string]bool{}
	for _, r := range s.cs.records {
		keys[r.Key] = true
	}
	for _, r := range s.cs.batch {
		keys[r.Key] = true
		for _, smp := range r.Result.Samples {
			s.batchS += smp.MeterTimeS
		}
	}
	s.batchN, s.finalN = len(s.cs.batch), len(keys)
	return nil
}

func (s *storeAnalyze) pass(ctx context.Context) (metricsAt, ops, error) {
	var o ops
	if err := copyDir(s.template, s.work); err != nil {
		return nil, o, err
	}
	k, err := s.cli.run("store", "query", "--db="+s.work, "--keys")
	if err != nil {
		return nil, o, err
	}
	var keys []string
	err = json.Unmarshal(k.Stdout.Bytes(), &keys)
	o.check(err == nil && len(keys) == s.cs.unique, "--keys listed %d configurations, want %d", len(keys), s.cs.unique)
	add, err := s.ingest(&o, s.work, s.batch, s.batchN)
	if err != nil {
		return nil, o, err
	}
	rep, an, err := s.analyzeStore(&o, s.work, s.cs.coruns, "--validate", "--roofline")
	if err != nil {
		return nil, o, err
	}
	s.checkFit(&o, rep)
	all := []*proc{k, add, an[0], an[1]}
	var u usage
	for _, p := range all {
		u.add(p.usage)
	}
	configs, records, batchS := float64(s.finalN), float64(s.batchN), s.batchS
	session, setup, analyze, ingest, peak := walls(all...), k.wall(), walls(an...), add.wall(), peakMB(all...)
	return func(h host) map[string]float64 {
		return map[string]float64{
			"trials_per_s":         configs / h.s(session),
			"measured_share":       batchS / h.s(ingest),
			"cpu_ms_per_trial":     1e3 * h.cpuS(u.CPU) / configs,
			"setup_s":              h.s(setup),
			"peak_rss_mb":          peak,
			"analyze_s":            h.s(analyze),
			"ingest_records_per_s": records / h.s(ingest),
		}
	}, o, nil
}

// checkFit compares the fitted model with the planted one and checks the
// validation and roofline sections cover every workload row.
func (s *storeAnalyze) checkFit(o *ops, rep *model.Report) {
	p := s.g.p
	close := func(got, want float64) bool { return math.Abs(got-want) <= 0.1+0.02*math.Abs(want) }
	o.check(rep.Fit != nil && close(rep.Fit.PStaticW, p.StaticW), "fitted static power differs from planted %.3f W", p.StaticW)
	for _, spec := range corpusSpecs {
		c := mustSpec(spec).Component
		got := math.NaN()
		if rep.Fit != nil {
			got = rep.Fit.CoeffW[c]
		}
		o.check(close(got, p.CoeffW[c]), "fitted %s coefficient %.3f W, planted %.3f W", c, got, p.CoeffW[c])
	}
	rows := countDistinct(s.cs.records, func(r store.Record) bool { return r.Result.Workload != "" })
	predicted, placed := 0, 0
	if rep.Validation != nil {
		predicted = rep.Validation.Predicted
	}
	if rep.Roofline != nil {
		placed = len(rep.Roofline.Points)
	}
	o.check(predicted == rows, "validation predicted %d workload rows, want %d", predicted, rows)
	o.check(placed == rows, "roofline placed %d workload rows, want %d", placed, rows)
}

func countDistinct(recs []store.Record, keep func(store.Record) bool) int {
	seen := map[string]bool{}
	for _, r := range recs {
		if keep(r) {
			seen[r.Key] = true
		}
	}
	return len(seen)
}

// copyDir replaces dst with a copy of the flat directory src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fleetJob: `serve` plus one `agent --cpus=2` on loopback; the driver posts
// an exhaustive campaign of tiny in-process trials to /jobs and polls
// GET /jobs/{id} every few milliseconds until it finishes (never through
// `submit --wait`, which polls every 500 ms). The user then downloads the
// merged results, `store add`s them into a local store and analyzes it.
type fleetJob struct {
	*env

	campaign []byte
	planKeys map[string]bool
	local    string // the user's local store, restored from tmpl every pass
	tmpl     string
	histKeys map[string]bool
	client   *http.Client
}

// fleetPoll is how often the driver polls the job status, and agentPoll how
// long an idle agent waits before asking for work again.
const (
	fleetPoll = 2 * time.Millisecond
	agentPoll = time.Millisecond
)

func (f *fleetJob) setup(ctx context.Context) error {
	path := f.path("campaign.json")
	if err := writeJSONFile(path, f.g.fleetCampaign()); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	f.campaign = raw
	plan, err := f.dryRun(path)
	if err != nil {
		return err
	}
	f.planKeys = map[string]bool{}
	for _, t := range plan {
		f.planKeys[t.Key("mock")] = true
	}
	// The user's local store already holds earlier results (the same kind
	// of history the sweeps resume from); the job's results are added to it.
	f.local, f.tmpl = f.path("local-store"), f.path("local-template")
	hist := f.g.sweepHistory(plan)
	histFile := f.path("history.ndjson")
	if err := writeNDJSON(histFile, hist); err != nil {
		return err
	}
	var o ops
	if _, err := f.ingest(&o, f.tmpl, histFile, len(hist)); err != nil {
		return err
	}
	if o.failed > 0 {
		return fmt.Errorf("building the local store failed")
	}
	f.histKeys = map[string]bool{}
	for _, r := range hist {
		f.histKeys[r.Key] = true
	}
	f.client = &http.Client{Timeout: 30 * time.Second}
	return nil
}

var (
	listeningLine  = regexp.MustCompile(`^fleet: coordinator listening on (\S+)`)
	registeredLine = regexp.MustCompile(`^fleet: agent \S+ registered as (\S+)`)
)

// fleetRun is one job on a fresh coordinator and agent.
type fleetRun struct {
	setup, dispatch time.Duration
	usage           usage
	status          fleet.JobStatus
	results         []byte // GET /jobs/{id}/results, NDJSON
}

// runJob starts serve and agent, submits the campaign, waits for the job
// and stops both processes, reaping them so their rusage is complete.
func (f *fleetJob) runJob(ctx context.Context, data string) (fr fleetRun, err error) {
	urlCh, regCh := make(chan string, 1), make(chan string, 1)
	notify := func(re *regexp.Regexp, ch chan string) func(string, time.Time) {
		return func(line string, _ time.Time) {
			if m := re.FindStringSubmatch(line); m != nil {
				select {
				case ch <- m[1]:
				default:
				}
			}
		}
	}
	serve, err := f.cli.start([]string{"serve", "--listen=127.0.0.1:0", "--data=" + data, "--lease-ttl=60s", "--batch=4"},
		notify(listeningLine, urlCh))
	if err != nil {
		return fr, err
	}
	var agent *proc
	var accepted time.Time
	defer func() {
		for _, p := range []*proc{agent, serve} {
			if p == nil {
				continue
			}
			if terr := p.terminate(); terr != nil && err == nil {
				err = terr
			}
			fr.usage.add(p.usage)
		}
		f.client.CloseIdleConnections()
		fr.setup = accepted.Sub(serve.Start) // serve's start is known once it is reaped
	}()
	url, err := waitSignal(ctx, urlCh, 30*time.Second, "the coordinator to listen")
	if err != nil {
		return fr, err
	}
	agent, err = f.cli.start([]string{"agent", "--coordinator=" + url, "--name=perfbench-agent", "--poll=" + agentPoll.String(), "--cpus=2"},
		notify(registeredLine, regCh))
	if err != nil {
		return fr, err
	}
	if _, err := waitSignal(ctx, regCh, 30*time.Second, "the agent to register"); err != nil {
		return fr, err
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	if err := f.do(ctx, http.MethodPost, url+"/jobs", f.campaign, http.StatusCreated, &sub); err != nil {
		return fr, fmt.Errorf("submitting: %w", err)
	}
	accepted = time.Now()
	deadline := accepted.Add(120 * time.Second)
	for {
		if err := f.do(ctx, http.MethodGet, url+"/jobs/"+sub.JobID, nil, http.StatusOK, &fr.status); err != nil {
			return fr, err
		}
		if fr.status.Finished {
			fr.dispatch = time.Since(accepted)
			break
		}
		if time.Now().After(deadline) {
			return fr, fmt.Errorf("job %s unfinished after 120 s: %d/%d done", sub.JobID, fr.status.Done, fr.status.Trials)
		}
		time.Sleep(fleetPoll)
	}
	var buf bytes.Buffer
	if err := f.do(ctx, http.MethodGet, url+"/jobs/"+sub.JobID+"/results", nil, http.StatusOK, &buf); err != nil {
		return fr, err
	}
	fr.results = buf.Bytes()
	return fr, nil
}

// do sends one request; out is decoded as JSON, or copied when it is a
// *bytes.Buffer.
func (f *fleetJob) do(ctx context.Context, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	if buf, ok := out.(*bytes.Buffer); ok {
		_, err = io.Copy(buf, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (f *fleetJob) pass(ctx context.Context) (metricsAt, ops, error) {
	var o ops
	data, results := f.path("coord"), f.path("results.ndjson")
	if err := os.RemoveAll(data); err != nil {
		return nil, o, err
	}
	if err := copyDir(f.tmpl, f.local); err != nil {
		return nil, o, err
	}
	fr, err := f.runJob(ctx, data)
	if err != nil {
		return nil, o, err
	}
	st := fr.status
	o.attempted += len(f.planKeys)
	o.failed += st.Failed
	o.check(st.Done == len(f.planKeys) && st.Failed == 0 && st.Duplicates == 0 && st.Redispatched == 0,
		"job: %d/%d done, %d failed, %d duplicates, %d redispatched", st.Done, len(f.planKeys), st.Failed, st.Duplicates, st.Redispatched)
	merged, err := storeKeys(filepath.Join(data, "jobs", st.ID, "store"), true)
	if err != nil {
		return nil, o, err
	}
	missing, extra := diffKeys(f.planKeys, merged)
	o.check(missing == 0 && extra == 0, "merged keys: %d missing, %d unexpected", missing, extra)

	if err := os.WriteFile(results, fr.results, 0o644); err != nil {
		return nil, o, err
	}
	var measured float64
	n := 0
	want := maps.Clone(f.histKeys)
	if err := decodeRecords(results, func(rec store.Record) {
		n++
		measured += measuredMS(rec.Result) / 1e3
		want[rec.Key] = true
	}); err != nil {
		return nil, o, err
	}
	add, err := f.ingest(&o, f.local, results, n)
	if err != nil {
		return nil, o, err
	}
	have, err := storeKeys(f.local, false)
	if err != nil {
		return nil, o, err
	}
	missing, extra = diffKeys(want, have)
	o.check(missing == 0 && extra == 0, "local keys: %d missing, %d unexpected", missing, extra)
	_, an, err := f.analyzeStore(&o, f.local, countCoRuns(want))
	if err != nil {
		return nil, o, err
	}
	trials, records := float64(st.Done), float64(n)
	dispatch, setup, cpu := fr.dispatch, fr.setup, fr.usage.CPU
	analyze, ingest := walls(an...), add.wall()
	peak := max(float64(fr.usage.MaxRSSKB)/1024, peakMB(add, an[0], an[1]))
	return func(h host) map[string]float64 {
		return map[string]float64{
			"trials_per_s": trials / h.s(dispatch),
			// Two wall times of the same pass: the slowness cancels.
			"measured_share":       measured / dispatch.Seconds(),
			"cpu_ms_per_trial":     1e3 * h.cpuS(cpu) / trials,
			"setup_s":              h.s(setup),
			"peak_rss_mb":          peak,
			"analyze_s":            h.s(analyze),
			"ingest_records_per_s": records / h.s(ingest),
		}
	}, o, nil
}
