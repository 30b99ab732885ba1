package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energybench/internal/adapt"
	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/meter"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent 0 marks a pass's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref,omitempty"` // trial, batch or job id
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer samples in memory; they are written out
// when the run ends.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
	vals  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), vals: map[string][]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span; the returned function closes it and returns its
// duration.
func (t *tracer) begin(name string, parent int64, ref string) (int64, func() time.Duration) {
	id := t.next.Add(1)
	start := t.now()
	return id, func() time.Duration {
		end := t.now()
		t.add(span{ID: id, Parent: parent, Name: name, Ref: ref, Start: start, End: end})
		return time.Duration(end - start)
	}
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record appends one sample of a per-layer value.
func (t *tracer) record(name string, v float64) {
	t.mu.Lock()
	t.vals[name] = append(t.vals[name], v)
	t.mu.Unlock()
}

// timed runs f inside a span and records its duration under metric, in
// the metric's unit (its name ends in _ms, _us or _ns).
func (t *tracer) timed(metric string, parent int64, f func() error) error {
	_, end := t.begin(metric, parent, "")
	err := f()
	t.record(metric, inUnit(metric, end()))
	return err
}

func inUnit(metric string, d time.Duration) float64 {
	switch {
	case strings.HasSuffix(metric, "_us"):
		return float64(d.Nanoseconds()) / 1e3
	case strings.HasSuffix(metric, "_ns"):
		return float64(d.Nanoseconds())
	}
	return float64(d.Nanoseconds()) / 1e6
}

type spanCtxKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

func spanOf(ctx context.Context) int64 {
	id, _ := ctx.Value(spanCtxKey{}).(int64)
	return id
}

// selfTimes returns the total duration and self time of the root spans
// (a span's self time is the part of its interval no direct child covers),
// and every span name's total self time as a share of the total duration of
// the roots of its tree, keyed "<root name>/<span name>".
func (t *tracer) selfTimes() (rootDur, rootSelf int64, shares map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	self := map[string]int64{}
	durByRoot := map[string]int64{}
	for _, s := range t.spans {
		own := (s.End - s.Start) - covered(s, children[s.ID])
		self[rootOf(s).Name+"/"+s.Name] += own
		if s.Parent == 0 {
			rootDur += s.End - s.Start
			rootSelf += own
			durByRoot[s.Name] += s.End - s.Start
		}
	}
	shares = map[string]float64{}
	for k, v := range self {
		root, _, _ := strings.Cut(k, "/")
		if d := durByRoot[root]; d > 0 {
			shares[k] = float64(v) / float64(d)
		}
	}
	return rootDur, rootSelf, shares
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curS, curE, started = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		default:
			curE = max(curE, x[1])
		}
	}
	if started {
		total += curE - curS
	}
	return total
}

// writeSpans writes every span as NDJSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedMeter wraps an energy meter with a span around every Read. It
// forwards meter.LoadAware, or the mock's planted model would never see the
// running configuration's load.
type tracedMeter struct {
	meter.EnergyMeter
	tr     *tracer
	parent atomic.Int64 // the execute span reads belong to
	reads  atomic.Int64
}

func (m *tracedMeter) Read() (meter.Reading, error) {
	_, end := m.tr.begin("meter.read", m.parent.Load(), "")
	r, err := m.EnergyMeter.Read()
	m.tr.record("meter.read_us", float64(end().Nanoseconds())/1e3)
	m.reads.Add(1)
	return r, err
}

func (m *tracedMeter) SetLoad(load map[string]float64) {
	if la, ok := m.EnergyMeter.(meter.LoadAware); ok {
		la.SetLoad(load)
	}
}

// tracedExec wraps an executor with a span per Execute. only, when set,
// picks the trials it spans (others pass straight through); meter, when
// set, attributes the meter reads inside Execute to the span (sequential
// executors only); allocs records the heap bytes allocated per trial; done
// sees every successful result with its Execute wall time.
type tracedExec struct {
	inner  harness.Executor
	tr     *tracer
	name   string
	only   func(harness.Trial) bool
	meter  *tracedMeter
	allocs bool
	done   func(t harness.Trial, res harness.Result, d time.Duration)
}

func (e *tracedExec) Execute(ctx context.Context, t harness.Trial) (harness.Result, error) {
	if e.only != nil && !e.only(t) {
		return e.inner.Execute(ctx, t)
	}
	var before runtime.MemStats
	if e.allocs {
		runtime.ReadMemStats(&before)
	}
	id, end := e.tr.begin(e.name, spanOf(ctx), fmt.Sprintf("trial %d", t.Seq))
	if e.meter != nil {
		prev := e.meter.parent.Swap(id)
		defer e.meter.parent.Store(prev)
	}
	res, err := e.inner.Execute(withSpan(ctx, id), t)
	d := end()
	if e.allocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		e.tr.record("harness.alloc_kb_per_trial", float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}
	if err == nil && e.done != nil {
		e.done(t, res, d)
	}
	return res, err
}

// measuredMS sums a result's stored meter windows.
func measuredMS(res harness.Result) float64 {
	var s float64
	for _, smp := range res.Samples {
		s += smp.MeterTimeS
	}
	return s * 1e3
}

// tracedSink wraps a result sink with a span per Consume.
type tracedSink struct {
	inner  harness.ResultSink
	tr     *tracer
	metric string
	parent int64
}

func (s *tracedSink) Consume(r harness.Result) error {
	return s.tr.timed(s.metric, s.parent, func() error { return s.inner.Consume(r) })
}

func (s *tracedSink) Close() error { return s.inner.Close() }

// tracedDispatcher wraps the planner's dispatcher: a span per RunPlan, and
// the planner's own work between dispatches (refit plus pick, including the
// pick before the first batch and the refit after the last) as adapt.round
// spans.
type tracedDispatcher struct {
	inner   adapt.Dispatcher
	tr      *tracer
	parent  int64
	lastEnd int64 // when the previous dispatch (or the planner) returned
	calls   int
	busy    time.Duration // Σ RunPlan wall time
}

func (d *tracedDispatcher) gap() {
	now := d.tr.now()
	d.tr.add(span{ID: d.tr.next.Add(1), Parent: d.parent, Name: "adapt.round", Start: d.lastEnd, End: now})
	d.tr.record("adapt.round_ms", float64(now-d.lastEnd)/1e6)
}

func (d *tracedDispatcher) RunPlan(ctx context.Context, trials []harness.Trial, sink harness.ResultSink) error {
	d.gap()
	id, end := d.tr.begin("harness.dispatch", d.parent, fmt.Sprintf("batch %d", d.calls))
	err := d.inner.RunPlan(withSpan(ctx, id), trials, sink)
	d.busy += end()
	d.lastEnd = d.tr.now()
	d.calls++
	return err
}

// tracedRunner wraps an agent's batch runner with a span per batch.
type tracedRunner struct {
	inner fleet.BatchRunner
	tr    *tracer
}

func (r *tracedRunner) RunBatch(ctx context.Context, b fleet.Batch, sink harness.ResultSink) error {
	id, end := r.tr.begin("fleet.batch", spanOf(ctx), b.JobID+"/"+b.BatchID)
	err := r.inner.RunBatch(withSpan(ctx, id), b, sink)
	r.tr.record("fleet.batch_ms", ms(end()))
	return err
}

// spanHeader carries the agent-side client span to the coordinator's
// handler span, so one request's two halves nest.
const spanHeader = "X-Perfbench-Span"

// route names a fleet API request after its handler.
func route(r *http.Request) string {
	p := strings.Trim(r.URL.Path, "/")
	parts := strings.Split(p, "/")
	switch {
	case r.Method == http.MethodPost && p == "jobs":
		return "fleet.submit"
	case r.Method == http.MethodPost && p == "agents/register":
		return "fleet.register"
	case r.Method == http.MethodPost && len(parts) == 3 && parts[0] == "agents":
		return map[string]string{"lease": "fleet.lease", "results": "fleet.ingest", "heartbeat": "fleet.heartbeat"}[parts[2]]
	case r.Method == http.MethodGet && len(parts) == 2 && parts[0] == "jobs":
		return "fleet.status"
	case r.Method == http.MethodGet && len(parts) == 3 && parts[0] == "jobs":
		return "fleet." + parts[2]
	}
	return "fleet.other"
}

// fleetCounts are the coordinator-side counts the middleware gathers.
type fleetCounts struct {
	mu          sync.Mutex
	leases      int
	emptyLeases int
	duplicates  int
	stale       int
}

// middleware spans every coordinator request under its route name, with
// the calling client span (when the agent sent one) as parent.
func (t *tracer) middleware(next http.Handler, root int64, fc *fleetCounts) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(r)
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			parent = root
		}
		cw := &captureWriter{ResponseWriter: w, keep: name == "fleet.lease" || name == "fleet.ingest"}
		_, end := t.begin(name, parent, r.URL.Path) // the path names the job or agent
		next.ServeHTTP(cw, r)
		d := end()
		switch name {
		case "fleet.submit", "fleet.lease", "fleet.ingest":
			t.record(name+"_ms", ms(d))
		}
		fc.mu.Lock()
		defer fc.mu.Unlock()
		switch name {
		case "fleet.lease":
			var resp struct {
				Batch *json.RawMessage `json:"batch"`
			}
			if json.Unmarshal(cw.body.Bytes(), &resp) == nil {
				fc.leases++
				if resp.Batch == nil {
					fc.emptyLeases++
				}
			}
		case "fleet.ingest":
			var resp struct {
				Dups  int `json:"duplicates"`
				Stale int `json:"stale"`
			}
			if json.Unmarshal(cw.body.Bytes(), &resp) == nil {
				fc.duplicates += resp.Dups
				fc.stale += resp.Stale
			}
		}
	})
}

// captureWriter keeps a copy of the response body when asked to.
type captureWriter struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.keep {
		c.body.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// tracedTransport spans every agent request on the client side and tells
// the coordinator which span it is.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, end := t.tr.begin("client."+route(req), spanOf(req.Context()), req.URL.Path)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return resp, err
	}
	// The span lasts until the caller closes the body, so it covers reading
	// and decoding the response too.
	resp.Body = &spanBody{ReadCloser: resp.Body, end: sync.OnceValue(end)}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	end func() time.Duration
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.end()
	return err
}
