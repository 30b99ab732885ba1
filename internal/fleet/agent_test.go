package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energybench/internal/harness"
)

// sixTrials is an exhaustive campaign of 3 specs × 2 thread counts: three
// batches at the test coordinator's batch size of 2.
const sixTrials = `{
  "name": "fleet-six",
  "meter": "mock",
  "executor": "inprocess",
  "spaces": [
    {"specs": ["int-alu", "chase-l1", "fp-mac"], "threads": [1, 2], "reps": 1, "warmup": 0}
  ]
}`

// recordingRunner is a runner that keeps resources between batches: it
// sinks fake results and records every batch it runs and every Idle call.
type recordingRunner struct {
	mu     sync.Mutex
	events []string
}

func (r *recordingRunner) RunBatch(ctx context.Context, b Batch, sink harness.ResultSink) error {
	r.record("batch")
	for _, tr := range b.Trials {
		if err := sink.Consume(fakeResult(tr, b.Exec.Meter)); err != nil {
			return err
		}
	}
	return nil
}

func (r *recordingRunner) Idle() { r.record("idle") }

func (r *recordingRunner) record(event string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, event)
}

// idlesBetweenBatches counts the Idle calls that fell between two batches.
func (r *recordingRunner) idlesBetweenBatches() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, idles, batched := 0, 0, false
	for _, e := range r.events {
		if e == "idle" {
			idles++
			continue
		}
		if batched {
			n += idles
		}
		idles, batched = 0, true
	}
	return n
}

// requestLog records the last path element of every request a handler
// serves ("register", "lease", "results", ...), in arrival order.
type requestLog struct {
	mu    sync.Mutex
	names []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.names = append(l.names, path.Base(r.URL.Path))
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// busyCounts counts the lease requests and result posts up to the last
// result post, leaving out the idle polls after it.
func (l *requestLog) busyCounts() (leases, posts int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idle := 0 // leases since the last post
	for _, n := range l.names {
		switch n {
		case "lease":
			idle++
		case "results":
			leases += idle
			idle = 0
			posts++
		}
	}
	return leases, posts
}

// waitForStatus polls the job until ok accepts its status.
func waitForStatus(t *testing.T, c *Coordinator, jobID string, ok func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(25 * time.Second)
	for {
		st, err := c.Status(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("the job never reached the awaited state: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startAgent runs an Agent over runner against url until the returned
// stop function is called; stop waits for the agent to return.
func startAgent(t *testing.T, url string, client *http.Client, runner BatchRunner) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	agent := &Agent{Coordinator: url, Host: testHost("host-a"), Runner: runner,
		Poll: 10 * time.Millisecond, Log: t.Logf, Client: client}
	done := make(chan error, 1)
	go func() { done <- agent.Run(ctx) }()
	return func() {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("agent: %v", err)
		}
	}
}

func finished(st JobStatus) bool { return st.Finished }

// TestBusyAgentPostsOncePerBatch: each results post asks for the next batch,
// so while the job has work the agent leases once and then makes one
// request per batch, and its runner is never told to idle between batches.
func TestBusyAgentPostsOncePerBatch(t *testing.T) {
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, sixTrials)
	var log requestLog
	srv := httptest.NewServer(log.wrap(c.Handler()))
	t.Cleanup(srv.Close)
	runner := &recordingRunner{}
	stop := startAgent(t, srv.URL, nil, runner)
	st := waitForStatus(t, c, sub.JobID, finished)
	stop()

	if st.Done != 6 || st.Failed != 0 || st.Batches != 3 || st.Redispatched != 0 {
		t.Fatalf("status = %+v, want 6 done in 3 batches", st)
	}
	if leases, posts := log.busyCounts(); leases != 1 || posts != st.Batches {
		t.Errorf("the busy agent made %d lease requests and %d results posts for %d batches, want 1 and one post per batch",
			leases, posts, st.Batches)
	}
	if n := runner.idlesBetweenBatches(); n != 0 {
		t.Errorf("the runner was told to idle %d times between batches", n)
	}
	if got := runner.events[len(runner.events)-1]; got != "idle" {
		t.Errorf("the runner's last event is %q: a stopped agent must leave its runner idle", got)
	}
}

// TestAgentLeasesWhenCoordinatorIgnoresNext: against a coordinator that
// ignores the request for the next batch, as one that predates it does,
// every results post comes back without a grant and the agent leases each
// batch instead, still keeping its runner's resources between batches.
func TestAgentLeasesWhenCoordinatorIgnoresNext(t *testing.T) {
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, sixTrials)
	var log requestLog
	h := c.Handler()
	srv := httptest.NewServer(log.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.URL.RawQuery = ""
		h.ServeHTTP(w, r)
	})))
	t.Cleanup(srv.Close)
	runner := &recordingRunner{}
	stop := startAgent(t, srv.URL, nil, runner)
	st := waitForStatus(t, c, sub.JobID, finished)
	stop()

	if st.Done != 6 || st.Failed != 0 || st.Redispatched != 0 {
		t.Fatalf("status = %+v, want 6 done", st)
	}
	if leases, posts := log.busyCounts(); leases != st.Batches || posts != st.Batches {
		t.Errorf("the agent made %d lease requests and %d results posts for %d batches, want one of each per batch",
			leases, posts, st.Batches)
	}
	if n := runner.idlesBetweenBatches(); n != 0 {
		t.Errorf("the runner was told to idle %d times between batches", n)
	}
}

// TestResultsPostGrantsOnlyWhenAsked: a results post without ?next never
// leases a batch, so an agent that does not read the grant cannot leave an
// orphaned lease; with it, the response carries the next batch, or a retry
// hint once nothing is left, and a next that is not a count is refused
// before anything is ingested.
func TestResultsPostGrantsOnlyWhenAsked(t *testing.T) {
	c, srv := newTestServer(t)
	sub := mustSubmit(t, c, testCampaign)
	agentID := mustRegister(t, c, "host-a")
	results := srv.URL + "/agents/" + agentID + "/results"
	b, err := c.Lease(agentID, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}
	body := string(ndjson(envelopesFor(b)...))

	resp, raw := postNDJSON(t, results+"?next=many", body)
	if st, _ := c.Status(sub.JobID); resp.StatusCode != http.StatusBadRequest || st.Done != 0 {
		t.Fatalf("next=many: HTTP %d (%s) with %d trials done, want 400 and nothing ingested", resp.StatusCode, raw, st.Done)
	}

	resp, raw = postNDJSON(t, results, body)
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("plain post: HTTP %d, body %s", resp.StatusCode, raw)
	}
	if _, ok := fields["batch"]; ok {
		t.Fatalf("a post without next was granted a batch: %s", raw)
	}
	if _, ok := fields["retry_after_ns"]; ok {
		t.Fatalf("a post without next carries a retry hint: %s", raw)
	}
	if st, _ := c.Status(sub.JobID); st.Done != 2 || st.Leased != 0 || st.Pending != 2 {
		t.Fatalf("after a plain post: %+v, want 2 done, 2 pending and no lease", st)
	}

	var ing ingestResponse
	_, raw = postNDJSON(t, results+"?next=0", body)
	if err := json.Unmarshal(raw, &ing); err != nil || ing.Dups != 2 || ing.Batch == nil || len(ing.Batch.Trials) != 2 {
		t.Fatalf("repeated post with next: %s, want 2 duplicates and the next batch of 2", raw)
	}
	if st, _ := c.Status(sub.JobID); st.Leased != 2 {
		t.Fatalf("after the grant: %+v, want the 2 granted trials leased", st)
	}

	granted := ing.Batch
	ing = ingestResponse{}
	_, raw = postNDJSON(t, results+"?next=0", string(ndjson(envelopesFor(granted)...)))
	if err := json.Unmarshal(raw, &ing); err != nil || ing.Accepted != 2 || ing.Batch != nil || ing.RetryAfter <= 0 {
		t.Fatalf("last post with next: %s, want 2 accepted, no batch and a retry hint", raw)
	}
	if st, _ := c.Status(sub.JobID); !st.Finished || st.Done != 4 {
		t.Fatalf("final status %+v, want finished with 4 done", st)
	}
}

// dropFirstResults loses the response to the first results post after the
// coordinator has handled it, as a connection reset would.
type dropFirstResults struct {
	dropped atomic.Bool
}

func (d *dropFirstResults) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && path.Base(r.URL.Path) == "results" && d.dropped.CompareAndSwap(false, true) {
		resp.Body.Close()
		return nil, errors.New("connection reset after the coordinator answered")
	}
	return resp, err
}

// TestLostGrantIsReclaimedAtLeaseExpiry: when the response carrying a
// granted batch is lost, the agent's retried post is granted another, and
// the lost batch stays leased until its lease expires; then it is
// reclaimed and re-dispatched, as a lost lease response is.
func TestLostGrantIsReclaimedAtLeaseExpiry(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, clk)
	sub := mustSubmit(t, c, sixTrials)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	stop := startAgent(t, srv.URL, &http.Client{Timeout: 30 * time.Second, Transport: &dropFirstResults{}}, &recordingRunner{})
	defer stop()

	// The first post's grant is lost, the retry's grant is run: the lost
	// batch's two trials are all that is left, leased to no one running them.
	st := waitForStatus(t, c, sub.JobID, func(st JobStatus) bool { return st.Done == 4 && st.Leased == 2 })
	if st.Duplicates != 2 {
		t.Fatalf("status = %+v, want the retried post's 2 results counted as duplicates", st)
	}
	// Within its TTL the lease holds, while the agent's idle polls keep it
	// from being taken for lost.
	clk.Advance(20 * time.Second)
	c.Reap()
	waitForSeen(t, c, clk.Now())
	if st, _ := c.Status(sub.JobID); st.Leased != 2 || st.Redispatched != 0 {
		t.Fatalf("before the lease expired: %+v, want the 2 trials still leased", st)
	}
	clk.Advance(11 * time.Second)
	c.Reap()
	st = waitForStatus(t, c, sub.JobID, finished)
	if st.Done != 6 || st.Failed != 0 || st.Redispatched != 2 {
		t.Fatalf("status = %+v, want 6 done with the lost batch's 2 trials re-dispatched", st)
	}
}

// waitForSeen waits until the coordinator has heard from its one agent at
// the fake clock's time now.
func waitForSeen(t *testing.T, c *Coordinator, now time.Time) {
	t.Helper()
	deadline := time.Now().Add(25 * time.Second)
	for {
		if agents := c.Agents(); len(agents) == 1 && !agents[0].Lost && agents[0].LastSeen.Equal(now) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the agent never polled after the clock moved: %+v", c.Agents())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
