package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"energybench/internal/harness"
	"energybench/internal/stats"
	"energybench/internal/store"
)

// testCampaign is a small exhaustive campaign: 2 specs × 2 thread counts =
// 4 trials under the mock meter.
const testCampaign = `{
  "name": "fleet-test",
  "meter": "mock",
  "mock_watts": 35,
  "executor": "inprocess",
  "spaces": [
    {"specs": ["int-alu", "chase-l1"], "threads": [1, 2], "reps": 1, "warmup": 0}
  ]
}`

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestCoordinator(t testing.TB, clk *fakeClock) *Coordinator {
	t.Helper()
	opts := Options{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second, BatchSize: 2, Log: t.Logf}
	if clk != nil {
		opts.Now = clk.Now
	}
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testHost(name string) HostInfo {
	return HostInfo{Name: name, OS: "linux", Arch: "amd64", CPUs: 8, Microarch: "TestCPU v1"}
}

// fakeResult synthesizes the result an executor would produce for a trial,
// with the key fields matching Trial.Key exactly.
func fakeResult(t harness.Trial, meterName string) harness.Result {
	power := 10 + 2.5*float64(t.Threads)
	r := harness.Result{
		Spec:      t.Spec.Name,
		Component: t.Spec.Component,
		Threads:   t.Threads,
		Iters:     t.Iters,
		Placement: t.Placement,
		Meter:     meterName,
		EnergyJ:   stats.Summary{N: 1, Mean: power},
		TimeS:     stats.Summary{N: 1, Mean: 1},
		PowerW:    stats.Summary{N: 1, Mean: power},
		EDP:       power,
	}
	if t.SpecB != nil {
		r.SpecB = t.SpecB.Name
		r.ComponentB = t.SpecB.Component
		r.ThreadsB = t.Threads
		r.ItersB = t.ItersB
	}
	return r
}

// envelopesFor builds the success envelopes an agent would post for a batch.
func envelopesFor(b *Batch) []ResultEnvelope {
	var envs []ResultEnvelope
	for _, t := range b.Trials {
		r := fakeResult(t, b.Exec.Meter)
		envs = append(envs, ResultEnvelope{
			V: ProtocolVersion, JobID: b.JobID, BatchID: b.BatchID,
			Seq: t.Seq, Key: t.Key(b.Exec.Meter), Result: &r,
		})
	}
	return envs
}

func mustRegister(t testing.TB, c *Coordinator, name string) string {
	t.Helper()
	reg, err := c.Register(testHost(name))
	if err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return reg.AgentID
}

func mustSubmit(t testing.TB, c *Coordinator, raw string) submitResponse {
	t.Helper()
	sub, err := c.Submit([]byte(raw))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return sub
}

// drainJob leases and completes every batch the coordinator will grant the
// agent, returning the number of trials executed.
func drainJob(t *testing.T, c *Coordinator, agentID string) int {
	t.Helper()
	ran := 0
	for {
		b, err := c.Lease(agentID, 0)
		if err != nil {
			t.Fatalf("Lease: %v", err)
		}
		if b == nil {
			return ran
		}
		for _, env := range envelopesFor(b) {
			if st, err := c.Ingest(agentID, env); err != nil || st != ingestAccepted {
				t.Fatalf("Ingest seq %d: status %v, err %v", env.Seq, st, err)
			}
		}
		ran += len(b.Trials)
	}
}

func jobKeys(t testing.TB, c *Coordinator, jobID string) map[string]bool {
	t.Helper()
	path, err := c.ResultsPath(jobID)
	if err != nil {
		t.Fatalf("ResultsPath: %v", err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	keys, err := st.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	return keys
}

func TestExhaustiveJobCompletes(t *testing.T) {
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, testCampaign)
	if sub.Trials != 4 {
		t.Fatalf("submit planned %d trials, want 4", sub.Trials)
	}
	agent := mustRegister(t, c, "host-a")
	if ran := drainJob(t, c, agent); ran != 4 {
		t.Fatalf("ran %d trials, want 4", ran)
	}
	st, err := c.Status(sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != 4 || st.Failed != 0 || st.Redispatched != 0 || st.Duplicates != 0 {
		t.Fatalf("status = %+v, want finished with 4 done and clean counters", st)
	}
	if st.Batches != 2 {
		t.Fatalf("batches = %d, want 2 (batch size 2)", st.Batches)
	}

	// Every stored key must carry the host and microarch dimensions, and
	// stripping them must reproduce the exact single-host key set.
	keys := jobKeys(t, c, sub.JobID)
	if len(keys) != 4 {
		t.Fatalf("store holds %d keys, want 4", len(keys))
	}
	for k := range keys {
		if !strings.Contains(k, "|h:host-a") || !strings.Contains(k, "|u:TestCPU v1") {
			t.Errorf("key %q is missing host/microarch dimensions", k)
		}
		kf, ok := harness.ParseKey(k)
		if !ok || kf.Host != "host-a" || kf.Microarch != "TestCPU v1" {
			t.Errorf("ParseKey(%q) = %+v, %v", k, kf, ok)
		}
		stripped := harness.StripHostKey(k)
		if strings.Contains(stripped, "|h:") || !strings.HasSuffix(k, "|h:host-a|u:TestCPU v1") {
			t.Errorf("StripHostKey(%q) = %q", k, stripped)
		}
	}
}

func TestAgentCrashLeaseReclaimAndRedispatch(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, clk)
	sub := mustSubmit(t, c, testCampaign)

	// Agent A leases a batch and crashes: no results, no heartbeats.
	crashed := mustRegister(t, c, "host-crash")
	b, err := c.Lease(crashed, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}
	crashedSeqs := map[int]bool{}
	for _, tr := range b.Trials {
		crashedSeqs[tr.Seq] = true
	}

	// Before the lease expires the trials stay leased.
	c.Reap()
	if st, _ := c.Status(sub.JobID); st.Leased != len(b.Trials) {
		t.Fatalf("leased = %d before expiry, want %d", st.Leased, len(b.Trials))
	}

	// Past the lease TTL the reaper reclaims and requeues them.
	clk.Advance(31 * time.Second)
	c.Reap()
	st, _ := c.Status(sub.JobID)
	if st.Redispatched != len(b.Trials) || st.Leased != 0 {
		t.Fatalf("after reclaim: redispatched=%d leased=%d, want %d/0", st.Redispatched, st.Leased, len(b.Trials))
	}

	// A healthy agent drains the whole job, including the reclaimed trials:
	// nothing lost.
	healthy := mustRegister(t, c, "host-b")
	if ran := drainJob(t, c, healthy); ran != 4 {
		t.Fatalf("healthy agent ran %d trials, want 4 (reclaimed included)", ran)
	}
	st, _ = c.Status(sub.JobID)
	if !st.Finished || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("status after drain = %+v", st)
	}
	keys := jobKeys(t, c, sub.JobID)
	if len(keys) != 4 {
		t.Fatalf("store holds %d keys, want 4", len(keys))
	}

	// The crashed agent wakes up and posts its stale results: idempotently
	// counted as duplicates, nothing double-stored, key set unchanged.
	for _, env := range envelopesFor(b) {
		got, err := c.Ingest(crashed, env)
		if err != nil || got != ingestDuplicate {
			t.Fatalf("stale ingest: status %v, err %v (want duplicate)", got, err)
		}
	}
	st, _ = c.Status(sub.JobID)
	if st.Duplicates != len(b.Trials) || st.Done != 4 {
		t.Fatalf("after stale post: duplicates=%d done=%d", st.Duplicates, st.Done)
	}
	if after := jobKeys(t, c, sub.JobID); len(after) != 4 {
		t.Fatalf("stale post grew the store to %d keys", len(after))
	}
}

func TestLeaseExpiryExhaustsIntoFailure(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, clk)
	sub := mustSubmit(t, c, testCampaign)
	agent := mustRegister(t, c, "host-flaky")
	// Lease and abandon every batch until all trials exhaust their attempts.
	for i := 0; i < maxAttempts*4; i++ {
		for {
			b, err := c.Lease(agent, 0)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
		}
		clk.Advance(31 * time.Second)
		c.Reap()
	}
	st, _ := c.Status(sub.JobID)
	if !st.Finished || st.Failed != 4 || st.Done != 0 {
		t.Fatalf("status = %+v, want 4 permanently failed", st)
	}
	if len(st.Failures) != 4 {
		t.Fatalf("failures list has %d entries, want 4", len(st.Failures))
	}
	for _, f := range st.Failures {
		if !strings.Contains(f.Error, "lease expired") {
			t.Errorf("failure %d: %q does not mention lease expiry", f.Seq, f.Error)
		}
	}
}

func TestAgentReportedTrialErrorIsStructured(t *testing.T) {
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, testCampaign)
	agent := mustRegister(t, c, "host-a")
	b, err := c.Lease(agent, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}
	// First trial errors, second succeeds.
	envs := envelopesFor(b)
	envs[0].Result = nil
	envs[0].Error = "worker child exited with signal: killed"
	for _, env := range envs {
		if st, err := c.Ingest(agent, env); err != nil || st != ingestAccepted {
			t.Fatalf("Ingest: %v, %v", st, err)
		}
	}
	drainJob(t, c, agent)
	st, _ := c.Status(sub.JobID)
	if !st.Finished || st.Failed != 1 || st.Done != 3 {
		t.Fatalf("status = %+v, want 1 failed / 3 done", st)
	}
	if len(st.Failures) != 1 || !strings.Contains(st.Failures[0].Error, "killed") {
		t.Fatalf("failures = %+v", st.Failures)
	}
}

// TestIngestRejectsResultOffItsEnvelopeKey: an envelope whose key names its
// trial but whose result measured another configuration is refused before
// anything is stored, so the trial stays pending instead of counting as
// done under a key no trial planned.
func TestIngestRejectsResultOffItsEnvelopeKey(t *testing.T) {
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, testCampaign)
	agent := mustRegister(t, c, "node-a")
	b, err := c.Lease(agent, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}
	env := envelopesFor(b)[0]
	env.Result.Threads = 6
	if _, err := c.Ingest(agent, env); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Ingest of a result off its envelope key = %v, want ErrBadRequest", err)
	}
	if keys := jobKeys(t, c, sub.JobID); len(keys) != 0 {
		t.Errorf("job store holds %v after the rejected envelope, want nothing", keys)
	}
	if st, _ := c.Status(sub.JobID); st.Done != 0 {
		t.Errorf("status = %+v, want no trial done", st)
	}
	// The intact envelopes still land, and the job completes on its own keys.
	for _, env := range envelopesFor(b) {
		if st, err := c.Ingest(agent, env); err != nil || st != ingestAccepted {
			t.Fatalf("Ingest seq %d: %v, %v", env.Seq, st, err)
		}
	}
	drainJob(t, c, agent)
	if st, _ := c.Status(sub.JobID); !st.Finished || st.Done != 4 {
		t.Fatalf("status = %+v, want 4 done", st)
	}
}

// TestIngestIgnoresErrorsForTrialsItDoesNotHold: an agent's error envelope
// for a trial leased to another agent is stale, whether it names its own
// batch or the other agent's, so the trial stays leased and is re-dispatched
// if its holder crashes; an error for a trial the agent holds still fails it.
func TestIngestIgnoresErrorsForTrialsItDoesNotHold(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoordinator(t, clk)
	sub := mustSubmit(t, c, testCampaign)
	a, b := mustRegister(t, c, "host-a"), mustRegister(t, c, "host-b")
	batchA, err := c.Lease(a, 0)
	if err != nil || batchA == nil {
		t.Fatalf("Lease A: %v, %v", batchA, err)
	}
	batchB, err := c.Lease(b, 0)
	if err != nil || batchB == nil {
		t.Fatalf("Lease B: %v, %v", batchB, err)
	}
	envsB := envelopesFor(batchB)
	for i, batchID := range []string{batchA.BatchID, batchB.BatchID} {
		env := envsB[i]
		env.BatchID, env.Result, env.Error = batchID, nil, "forged failure"
		if st, err := c.Ingest(a, env); err != nil || st != ingestStale {
			t.Errorf("A's error for B's seq %d under batch %s: status %v, err %v; want stale", env.Seq, batchID, st, err)
		}
	}
	if st, _ := c.Status(sub.JobID); st.Leased != 4 || st.Failed != 0 {
		t.Fatalf("status = %+v, want 4 leased, 0 failed", st)
	}

	// A reports its own trials: one result, one error it may post.
	envsA := envelopesFor(batchA)
	envsA[1].Result, envsA[1].Error = nil, "worker child exited with signal: killed"
	for _, env := range envsA {
		if st, err := c.Ingest(a, env); err != nil || st != ingestAccepted {
			t.Fatalf("A's own seq %d: status %v, err %v; want accepted", env.Seq, st, err)
		}
	}

	// B crashes: its lease expires and both its trials go back to the queue.
	clk.Advance(31 * time.Second)
	if err := c.Heartbeat(a); err != nil {
		t.Fatal(err)
	}
	c.Reap()
	st, _ := c.Status(sub.JobID)
	if st.Pending != 2 || st.Redispatched != 2 || st.Done != 1 || st.Failed != 1 {
		t.Fatalf("after B's lease expired: status = %+v, want 2 pending and redispatched, 1 done, 1 failed", st)
	}
	again, err := c.Lease(a, 0)
	if err != nil || again == nil || len(again.Trials) != 2 {
		t.Fatalf("re-lease of B's trials: %+v, %v", again, err)
	}
}

func TestCoordinatorRestartResume(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, LeaseTTL: 30 * time.Second, BatchSize: 2, Log: t.Logf}
	c1, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := mustSubmit(t, c1, testCampaign)
	agent := mustRegister(t, c1, "host-a")
	// Complete exactly one batch (2 of 4 trials), then "crash".
	b, err := c1.Lease(agent, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}
	doneSeqs := map[int]bool{}
	for _, env := range envelopesFor(b) {
		if _, err := c1.Ingest(agent, env); err != nil {
			t.Fatal(err)
		}
		doneSeqs[env.Seq] = true
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restart over the same data directory: the job must resume with the
	// completed trials recovered from the store, not re-queued.
	c2, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer c2.Close()
	st, err := c2.Status(sub.JobID)
	if err != nil {
		t.Fatalf("restarted coordinator lost job %s: %v", sub.JobID, err)
	}
	if st.Done != 2 || st.Pending != 2 || st.Finished {
		t.Fatalf("resumed status = %+v, want 2 done / 2 pending", st)
	}

	// Drain the remainder and assert the resumed run never re-leased a
	// completed trial.
	agent2 := mustRegister(t, c2, "host-a")
	for {
		b, err := c2.Lease(agent2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		for _, tr := range b.Trials {
			if doneSeqs[tr.Seq] {
				t.Fatalf("restarted coordinator re-leased completed trial %d", tr.Seq)
			}
		}
		for _, env := range envelopesFor(b) {
			if _, err := c2.Ingest(agent2, env); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ = c2.Status(sub.JobID)
	if !st.Finished || st.Done != 4 {
		t.Fatalf("final status = %+v", st)
	}
	if keys := jobKeys(t, c2, sub.JobID); len(keys) != 4 {
		t.Fatalf("store holds %d keys, want 4", len(keys))
	}

	// A submit on the restarted coordinator must not collide with the
	// resumed job's ID.
	sub2 := mustSubmit(t, c2, testCampaign)
	if sub2.JobID == sub.JobID {
		t.Fatalf("restarted coordinator reused job ID %s", sub.JobID)
	}
}

func TestHostSelectorRoutesWork(t *testing.T) {
	c := newTestCoordinator(t, nil)
	camp := strings.Replace(testCampaign, `"meter": "mock",`, `"meter": "mock", "hosts": ["host-b"],`, 1)
	sub := mustSubmit(t, c, camp)
	wrong := mustRegister(t, c, "host-a")
	if b, err := c.Lease(wrong, 0); err != nil || b != nil {
		t.Fatalf("host-a got a lease for a host-b-only job: %v, %v", b, err)
	}
	right := mustRegister(t, c, "host-b")
	if ran := drainJob(t, c, right); ran != 4 {
		t.Fatalf("host-b ran %d trials, want 4", ran)
	}
	if st, _ := c.Status(sub.JobID); !st.Finished {
		t.Fatalf("job did not finish: %+v", st)
	}
}

func TestUnknownAgentMustReregister(t *testing.T) {
	c := newTestCoordinator(t, nil)
	if _, err := c.Lease("a9999", 0); err == nil || !strings.Contains(err.Error(), "re-register") {
		t.Fatalf("Lease from unknown agent: %v", err)
	}
	if err := c.Heartbeat("a9999"); err == nil {
		t.Fatal("Heartbeat from unknown agent succeeded")
	}
}

// --- HTTP layer ---

func newTestServer(t *testing.T) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := newTestCoordinator(t, nil)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

func postNDJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestHTTPEndToEndWithAgentLoop(t *testing.T) {
	c, srv := newTestServer(t)

	// Submit over HTTP.
	resp, err := http.Post(srv.URL+"/jobs", "application/yaml", strings.NewReader(testCampaign))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || sub.Trials != 4 {
		t.Fatalf("submit: HTTP %d, %+v", resp.StatusCode, sub)
	}

	// A real Agent loop with a fake runner executes the whole job.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agent := &Agent{
		Coordinator: srv.URL,
		Host:        testHost("host-http"),
		Poll:        10 * time.Millisecond,
		Log:         t.Logf,
		Runner: BatchRunnerFunc(func(ctx context.Context, b Batch, sink harness.ResultSink) error {
			for _, tr := range b.Trials {
				if err := sink.Consume(fakeResult(tr, b.Exec.Meter)); err != nil {
					return err
				}
			}
			return nil
		}),
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(ctx) }()

	deadline := time.Now().Add(25 * time.Second)
	for {
		st, err := c.Status(sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Finished {
			if st.Done != 4 || st.Failed != 0 {
				t.Fatalf("finished status = %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	if err := <-agentDone; err != nil {
		t.Fatalf("agent: %v", err)
	}

	// Status and results over HTTP.
	var st JobStatus
	get, err := http.Get(srv.URL + "/jobs/" + sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(get.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if st.Done != 4 || st.Batches == 0 || st.DispatchMeanMS <= 0 {
		t.Fatalf("HTTP status = %+v, want 4 done with dispatch latency stats", st)
	}

	res, err := http.Get(srv.URL + "/jobs/" + sub.JobID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	dec := json.NewDecoder(res.Body)
	lines := 0
	for dec.More() {
		var rec store.Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("decoding results line %d: %v", lines, err)
		}
		if rec.V != store.SchemaVersion || rec.Result.Host != "host-http" {
			t.Fatalf("record %d = %+v", lines, rec)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("results stream had %d records, want 4", lines)
	}
}

// TestOverlappingSpacesJobHasNoFailures: a configuration two spaces both
// declare is planned once. A batch holding two trials under one key would
// report one of them "trial not executed", since the agent matches results
// to trials by key.
func TestOverlappingSpacesJobHasNoFailures(t *testing.T) {
	c, srv := newTestServer(t)
	sub := mustSubmit(t, c, `{
  "meter": "mock",
  "executor": "inprocess",
  "spaces": [
    {"specs": ["int-alu"], "threads": [1], "reps": 1, "warmup": 0},
    {"specs": ["int-alu"], "threads": [1], "reps": 1, "warmup": 0}
  ]
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	agent := &Agent{
		Coordinator: srv.URL,
		Host:        testHost("host-a"),
		Poll:        10 * time.Millisecond,
		Log:         t.Logf,
		Runner: BatchRunnerFunc(func(ctx context.Context, b Batch, sink harness.ResultSink) error {
			for _, tr := range b.Trials {
				if err := sink.Consume(fakeResult(tr, b.Exec.Meter)); err != nil {
					return err
				}
			}
			return nil
		}),
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-agentDone; err != nil {
			t.Errorf("agent: %v", err)
		}
	}()
	for {
		st, err := c.Status(sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Finished {
			if st.Failed != 0 || st.Done != 1 {
				t.Fatalf("finished status = %+v, want 1 done and 0 failed", st)
			}
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHTTPMalformedEnvelopeIsStructuredError(t *testing.T) {
	c, srv := newTestServer(t)
	mustSubmit(t, c, testCampaign)
	agentID := mustRegister(t, c, "host-a")
	b, err := c.Lease(agentID, 0)
	if err != nil || b == nil {
		t.Fatalf("Lease: %v, %v", b, err)
	}

	// Malformed JSON line → 400 with a structured {"error": ...} body.
	resp, body := postNDJSON(t, srv.URL+"/agents/"+agentID+"/results", "{not json\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed line: HTTP %d, body %s", resp.StatusCode, body)
	}
	var ae apiError
	if err := json.Unmarshal(body, &ae); err != nil || ae.Error == "" {
		t.Fatalf("malformed line error body %q is not structured", body)
	}

	// Version-skewed envelope → 400 naming the protocol mismatch.
	env := envelopesFor(b)[0]
	env.V = ProtocolVersion + 1
	line, _ := json.Marshal(env)
	resp, body = postNDJSON(t, srv.URL+"/agents/"+agentID+"/results", string(line)+"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("skewed envelope: HTTP %d, body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ae); err != nil || !strings.Contains(ae.Error, "newer than coordinator") {
		t.Fatalf("skewed envelope error body %q", body)
	}

	// Key/seq mismatch → 400.
	env = envelopesFor(b)[0]
	env.Key = "tampered|key"
	line, _ = json.Marshal(env)
	resp, body = postNDJSON(t, srv.URL+"/agents/"+agentID+"/results", string(line)+"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched key: HTTP %d, body %s", resp.StatusCode, body)
	}

	// The lease is still intact: the real envelopes are accepted afterwards.
	var lines []string
	for _, env := range envelopesFor(b) {
		l, _ := json.Marshal(env)
		lines = append(lines, string(l))
	}
	resp, body = postNDJSON(t, srv.URL+"/agents/"+agentID+"/results", strings.Join(lines, "\n")+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid post after rejects: HTTP %d, body %s", resp.StatusCode, body)
	}
	var ing ingestResponse
	if err := json.Unmarshal(body, &ing); err != nil || ing.Accepted != len(b.Trials) {
		t.Fatalf("ingest response %s", body)
	}
}

func TestHTTPUnknownJobAndAgentAre404(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/jobs/j9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d", resp.StatusCode)
	}
	resp, body := postNDJSON(t, srv.URL+"/agents/a9999/results", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown agent: HTTP %d, body %s", resp.StatusCode, body)
	}
}

func TestAdaptiveJobOverFleet(t *testing.T) {
	// An active-learning campaign: the planner runs inside the coordinator
	// and dispatches rounds through the lease table. The fake results follow
	// an exact linear power law, so the fit converges quickly.
	const adaptiveCampaign = `{
  "name": "fleet-adaptive",
  "meter": "mock",
  "mock_watts": 10,
  "mock_model": "alu:2.0,l1:1.0",
  "algo": "active",
  "batch": 2,
  "seed": 7,
  "executor": "inprocess",
  "spaces": [
    {"specs": ["int-alu", "chase-l1", "fp-mac"], "threads": [1, 2], "reps": 1, "warmup": 0}
  ]
}`
	c := newTestCoordinator(t, nil)
	sub := mustSubmit(t, c, adaptiveCampaign)
	if !sub.Adaptive {
		t.Fatalf("submit did not mark the job adaptive: %+v", sub)
	}
	agent := mustRegister(t, c, "host-a")
	deadline := time.Now().Add(25 * time.Second)
	for {
		st, err := c.Status(sub.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Finished {
			if st.PlannerErr != "" {
				t.Fatalf("planner failed: %s", st.PlannerErr)
			}
			if st.Report == nil || st.Report.RanTrials == 0 {
				t.Fatalf("finished without a planner report: %+v", st)
			}
			if st.Done != st.Report.RanTrials {
				t.Fatalf("done=%d but planner ran %d", st.Done, st.Report.RanTrials)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("adaptive job never finished: %+v", st)
		}
		drainJob(t, c, agent)
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitRejectsBadCampaign(t *testing.T) {
	c := newTestCoordinator(t, nil)
	if _, err := c.Submit([]byte(`{"name": "x"}`)); err == nil {
		t.Fatal("campaign without spaces was accepted")
	}
	if _, err := c.Submit([]byte(`{"name": "x", "hosts": ["a|b"], "spaces": [{"specs": ["int-alu"]}]}`)); err == nil {
		t.Fatal("campaign with a delimiter in a host name was accepted")
	}
}

func TestHostInfoValidate(t *testing.T) {
	cases := []struct {
		h  HostInfo
		ok bool
	}{
		{testHost("good"), true},
		{HostInfo{Name: "", CPUs: 4}, false},
		{HostInfo{Name: "a|b", CPUs: 4}, false},
		{HostInfo{Name: "a/b", CPUs: 4}, false},
		{HostInfo{Name: "a", CPUs: 0}, false},
	}
	for _, tc := range cases {
		if err := tc.h.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.h, err, tc.ok)
		}
	}
}

func TestLocalHostSanitizes(t *testing.T) {
	h := LocalHost("node|7/a")
	if h.Name != "node-7-a" {
		t.Fatalf("LocalHost name = %q", h.Name)
	}
	if h.CPUs < 1 || h.OS == "" || h.Arch == "" {
		t.Fatalf("LocalHost = %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrialErrorsWalker(t *testing.T) {
	te1 := &harness.TrialError{Trial: harness.Trial{Seq: 1}, Err: fmt.Errorf("boom")}
	te2 := &harness.TrialError{Trial: harness.Trial{Seq: 2}, Err: fmt.Errorf("bang")}
	joined := fmt.Errorf("wrap: %w", errors.Join(te1, te2))
	got := trialErrors(joined)
	if len(got) != 2 || got[0].Trial.Seq != 1 || got[1].Trial.Seq != 2 {
		t.Fatalf("trialErrors = %+v", got)
	}
	if got := trialErrors(nil); got != nil {
		t.Fatalf("trialErrors(nil) = %v", got)
	}
}
