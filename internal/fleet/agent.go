package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"energybench/internal/harness"
)

// BatchRunner executes one leased batch's trials locally, streaming each
// completed trial's result into the sink. Per-trial failures must surface as
// *harness.TrialError values in the returned (possibly joined) error, with
// the other trials still executed — exactly the contract harness.Scheduler
// already provides. The agent calls RunBatch one batch at a time, from one
// goroutine, so a runner may keep state from one batch to the next without
// locking it. The CLI wires a scheduler over the real executors; fleet
// tests substitute deterministic fakes.
type BatchRunner interface {
	RunBatch(ctx context.Context, b Batch, sink harness.ResultSink) error
}

// Idler is implemented by a BatchRunner that keeps resources from one batch
// to the next. The agent calls Idle, between batches, whenever the
// coordinator has no batch for it and when it stops, so an idle agent holds
// nothing.
type Idler interface {
	Idle()
}

// BatchRunnerFunc adapts a function to BatchRunner.
type BatchRunnerFunc func(ctx context.Context, b Batch, sink harness.ResultSink) error

func (f BatchRunnerFunc) RunBatch(ctx context.Context, b Batch, sink harness.ResultSink) error {
	return f(ctx, b, sink)
}

// Agent is the long-running fleet worker daemon: it registers its host
// capabilities with the coordinator, heartbeats to keep its leases alive,
// and loops leasing trial batches, executing them through its BatchRunner,
// and posting the result envelopes back. A coordinator restart (agent ID
// forgotten, requests answered 404) is survived by re-registering.
type Agent struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:7979").
	Coordinator string
	// Host is this machine's capability advertisement (LocalHost).
	Host HostInfo
	// Runner executes leased batches; required.
	Runner BatchRunner
	// Poll bounds how long the agent idles between empty leases (default,
	// and upper bound for coordinator hints: 2s).
	Poll time.Duration
	// Log, when non-nil, receives one line per significant event.
	Log func(format string, args ...any)
	// Client overrides the HTTP client (default: 30s overall timeout).
	Client *http.Client
}

// Run drives the agent until ctx is cancelled (returns nil) or a permanent
// protocol error occurs (version skew with the coordinator).
func (a *Agent) Run(ctx context.Context) error {
	if a.Runner == nil {
		return fmt.Errorf("fleet: agent has no batch runner")
	}
	defer a.idle()
	if err := a.Host.Validate(); err != nil {
		return err
	}
	if a.Poll <= 0 {
		a.Poll = 2 * time.Second
	}
	if a.Client == nil {
		a.Client = &http.Client{Timeout: 30 * time.Second}
	}
	for {
		reg, err := a.register(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		a.logf("fleet: agent %s registered as %s with %s", a.Host.Name, reg.AgentID, a.Coordinator)
		err = a.session(ctx, reg)
		if ctx.Err() != nil {
			return nil
		}
		if !errors.Is(err, ErrUnknownAgent) {
			return err
		}
		a.logf("fleet: agent %s forgotten by coordinator (restart?), re-registering", reg.AgentID)
	}
}

// register retries until the coordinator accepts the registration or ctx
// ends, backing off so a fleet booting before its coordinator settles calmly.
func (a *Agent) register(ctx context.Context) (registerResponse, error) {
	backoff := 250 * time.Millisecond
	for {
		var resp registerResponse
		err := a.postJSON(ctx, "/agents/register", registerRequest{V: ProtocolVersion, Host: a.Host}, &resp)
		if err == nil {
			if resp.V > ProtocolVersion {
				return resp, fmt.Errorf("fleet: coordinator protocol v%d is newer than agent v%d", resp.V, ProtocolVersion)
			}
			return resp, nil
		}
		if errors.Is(err, ErrBadRequest) {
			return resp, err // structural, retrying cannot help
		}
		a.logf("fleet: registration failed (%v), retrying in %v", err, backoff)
		select {
		case <-ctx.Done():
			return resp, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 8*time.Second {
			backoff *= 2
		}
	}
}

// session is one registration's lifetime: heartbeats in the background, the
// execute/post loop in the foreground. Each results post asks for the next
// batch, so a busy agent makes one request per batch; it leases when a post
// brought no answer (it failed, or the coordinator ignores the request).
// It returns ErrUnknownAgent when the coordinator no longer knows the agent
// ID.
func (a *Agent) session(ctx context.Context, reg registerResponse) error {
	hctx, stopHeartbeat := context.WithCancel(ctx)
	defer stopHeartbeat()
	lost := make(chan struct{}, 1)
	go a.heartbeatLoop(hctx, reg, lost)

	var next grant // the last results post's grant
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-lost:
			return ErrUnknownAgent
		default:
		}
		g := next
		next = grant{}
		if g.Batch == nil && g.RetryAfter <= 0 {
			var resp leaseResponse
			err := a.postJSON(ctx, "/agents/"+reg.AgentID+"/lease", leaseRequest{V: ProtocolVersion}, &resp)
			switch {
			case errors.Is(err, ErrUnknownAgent):
				return err
			case err != nil:
				a.logf("fleet: lease request failed: %v", err)
				if !sleepCtx(ctx, a.Poll) {
					return ctx.Err()
				}
				continue
			}
			g = resp.grant
		}
		if g.Batch == nil {
			a.idle()
			wait := g.RetryAfter
			if wait <= 0 || wait > a.Poll {
				wait = a.Poll
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		if g.Batch.V > ProtocolVersion {
			return fmt.Errorf("fleet: batch protocol v%d is newer than agent v%d", g.Batch.V, ProtocolVersion)
		}
		var err error
		if next, err = a.runBatch(ctx, reg, *g.Batch); err != nil {
			if errors.Is(err, ErrUnknownAgent) || ctx.Err() != nil {
				return err
			}
			a.logf("fleet: batch %s: %v", g.Batch.BatchID, err)
		}
	}
}

// idle tells the runner, when it keeps resources between batches, that no
// batch is coming.
func (a *Agent) idle() {
	if r, ok := a.Runner.(Idler); ok {
		r.Idle()
	}
}

func (a *Agent) heartbeatLoop(ctx context.Context, reg registerResponse, lost chan<- struct{}) {
	every := reg.HeartbeatEvery
	if every <= 0 {
		every = 5 * time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		err := a.postJSON(ctx, "/agents/"+reg.AgentID+"/heartbeat", nil, nil)
		if errors.Is(err, ErrUnknownAgent) {
			select {
			case lost <- struct{}{}:
			default:
			}
			return
		}
	}
}

// runBatch executes the batch and posts every trial's envelope — result or
// structured error — in one NDJSON request, which asks for the next batch.
// Trials the runner finished are reported even when others failed; trials
// that produced neither a result nor a *harness.TrialError (runner-level
// failure) get the batch error. It returns the post's grant.
func (a *Agent) runBatch(ctx context.Context, reg registerResponse, b Batch) (grant, error) {
	a.logf("fleet: running batch %s: job %s, %d trials", b.BatchID, b.JobID, len(b.Trials))
	seqByKey := make(map[string]int, len(b.Trials))
	for _, t := range b.Trials {
		seqByKey[t.Key(b.Exec.Meter)] = t.Seq
	}
	var mu sync.Mutex
	envBySeq := map[int]ResultEnvelope{}
	sink := harness.SinkFunc(func(r harness.Result) error {
		key := harness.ResultKey(r)
		seq, ok := seqByKey[key]
		if !ok {
			return fmt.Errorf("fleet: runner produced result for unknown key %q", key)
		}
		mu.Lock()
		envBySeq[seq] = ResultEnvelope{
			V: ProtocolVersion, JobID: b.JobID, BatchID: b.BatchID,
			Seq: seq, Key: key, Result: &r,
		}
		mu.Unlock()
		return nil
	})
	runErr := a.Runner.RunBatch(ctx, b, sink)
	if ctx.Err() != nil {
		return grant{}, ctx.Err() // interrupted mid-batch: report nothing, let the lease expire
	}
	for _, te := range trialErrors(runErr) {
		if _, done := envBySeq[te.Trial.Seq]; done {
			continue
		}
		envBySeq[te.Trial.Seq] = ResultEnvelope{
			V: ProtocolVersion, JobID: b.JobID, BatchID: b.BatchID,
			Seq: te.Trial.Seq, Key: te.Trial.Key(b.Exec.Meter), Error: te.Err.Error(),
		}
	}
	for _, t := range b.Trials {
		if _, done := envBySeq[t.Seq]; done {
			continue
		}
		msg := "trial not executed"
		if runErr != nil {
			msg = runErr.Error()
		}
		envBySeq[t.Seq] = ResultEnvelope{
			V: ProtocolVersion, JobID: b.JobID, BatchID: b.BatchID,
			Seq: t.Seq, Key: t.Key(b.Exec.Meter), Error: msg,
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, t := range b.Trials { // batch order, for readable coordinator logs
		if err := enc.Encode(envBySeq[t.Seq]); err != nil {
			return grant{}, fmt.Errorf("fleet: encoding envelope: %w", err)
		}
	}
	return a.postResults(ctx, reg, b, buf.Bytes())
}

// postResults retries the results POST a few times: the envelopes are the
// only copy of this batch's work, and ingestion is idempotent, so retrying
// a possibly-delivered post is always safe. A post whose response was lost
// may have been granted a batch; like a lost lease response, that batch is
// reclaimed when its lease expires.
func (a *Agent) postResults(ctx context.Context, reg registerResponse, b Batch, body []byte) (grant, error) {
	path := "/agents/" + reg.AgentID + "/results?next=0"
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, time.Duration(attempt)*time.Second) {
			return grant{}, ctx.Err()
		}
		var resp ingestResponse
		err = a.postRaw(ctx, path, "application/x-ndjson", body, &resp)
		if err == nil {
			a.logf("fleet: batch %s posted: %d accepted, %d duplicate, %d stale",
				b.BatchID, resp.Accepted, resp.Dups, resp.Stale)
			return resp.grant, nil
		}
		if errors.Is(err, ErrUnknownAgent) || errors.Is(err, ErrBadRequest) {
			return grant{}, err // retrying an identical post cannot help
		}
		a.logf("fleet: posting batch %s results failed (attempt %d): %v", b.BatchID, attempt+1, err)
	}
	return grant{}, err
}

// trialErrors walks a (possibly joined, possibly wrapped) error tree and
// collects every *harness.TrialError, covering both errors.Join trees
// (Unwrap() []error) and single-wrap chains (Unwrap() error).
func trialErrors(err error) []*harness.TrialError {
	var out []*harness.TrialError
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if te, ok := e.(*harness.TrialError); ok {
			out = append(out, te)
			return
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, sub := range u.Unwrap() {
				walk(sub)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	return out
}

func (a *Agent) logf(format string, args ...any) {
	if a.Log != nil {
		a.Log(format, args...)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// postJSON posts a JSON document and decodes a JSON response. A nil body
// posts an empty request; a nil out discards the response body.
func (a *Agent) postJSON(ctx context.Context, path string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("fleet: encoding request: %w", err)
		}
	}
	return a.postRaw(ctx, path, "application/json", raw, out)
}

// postRaw is the single HTTP POST path: non-2xx responses are decoded into
// the structured apiError body and mapped back onto the sentinel errors the
// coordinator classified them with (404 → ErrUnknownAgent/ErrNotFound,
// 400 → ErrBadRequest), so agent logic can errors.Is its way through.
func (a *Agent) postRaw(ctx context.Context, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := a.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg := readAPIError(resp.Body)
		switch resp.StatusCode {
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s: %s", ErrUnknownAgent, path, msg)
		case http.StatusBadRequest:
			return fmt.Errorf("%w: %s: %s", ErrBadRequest, path, msg)
		}
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: decoding %s response: %w", path, err)
	}
	return nil
}

func readAPIError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var ae apiError
	if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
		return ae.Error
	}
	return string(bytes.TrimSpace(data))
}
