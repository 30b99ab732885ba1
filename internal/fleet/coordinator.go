package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"energybench/internal/adapt"
	"energybench/internal/campaign"
	"energybench/internal/harness"
	"energybench/internal/store"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound marks lookups of jobs that do not exist.
	ErrNotFound = errors.New("fleet: not found")
	// ErrUnknownAgent marks requests from an agent the coordinator does not
	// know — never registered, or forgotten across a coordinator restart.
	// The agent's recovery is to re-register.
	ErrUnknownAgent = errors.New("fleet: unknown agent (re-register)")
	// ErrBadRequest marks structurally invalid requests (version skew,
	// malformed envelopes, key mismatches).
	ErrBadRequest = errors.New("fleet: bad request")
)

// maxAttempts bounds how often a trial reclaimed from expired leases is
// re-dispatched before it is declared permanently failed. Agent-reported
// trial errors are not retried at all — they are deterministic executor
// failures, handled exactly like a local Scheduler's per-trial errors.
const maxAttempts = 3

// Options configures a Coordinator.
type Options struct {
	// DataDir is the coordinator's persistent root: every job lives under
	// DataDir/jobs/<id>/ (submitted campaign, metadata, merged store), which
	// is what makes a restart resumable. Required.
	DataDir string
	// LeaseTTL is how long an agent holds a batch before the coordinator
	// may reclaim and re-dispatch it (default 30s). Registering agents are
	// told to check in every LeaseTTL/3 (heartbeatEvery); an agent silent
	// for three periods is considered lost and its leases are reclaimed
	// immediately rather than at lease expiry.
	LeaseTTL time.Duration
	// BatchSize caps the trials granted per lease (default 4).
	BatchSize int
	// Log, when non-nil, receives one line per significant event.
	Log func(format string, args ...any)
	// Now overrides the clock, for tests (default time.Now).
	Now func() time.Time
}

type trialState int

const (
	// trialUnqueued: known to the plan but not (yet) requested — the resting
	// state of adaptive-job candidates the planner has not selected.
	trialUnqueued trialState = iota
	trialPending             // queued, waiting for an agent lease
	trialLeased              // granted to an agent, lease outstanding
	trialDone                // result merged into the store
	trialFailed              // permanently failed (executor error or attempts exhausted)
)

// lease is one outstanding batch grant.
type lease struct {
	batchID     string
	jobID       string
	agentID     string
	granted     time.Time
	deadline    time.Time
	outstanding map[int]bool // seqs still awaiting an envelope
}

// agentState is the coordinator's view of one registered agent.
type agentState struct {
	id        string
	host      HostInfo
	lastSeen  time.Time
	lost      bool
	completed int
}

// job is the coordinator's full state for one submitted campaign.
type job struct {
	id       string
	name     string
	created  time.Time
	adaptive bool
	camp     *campaign.Campaign
	exec     ExecConfig
	hosts    []string // host selector; empty means any agent

	trials   []harness.Trial // index == Seq
	state    []trialState
	attempts []int
	queue    []int // FIFO of pending seqs (entries re-checked at pop)
	failures map[int]string
	results  map[int]harness.Result // adaptive jobs only: per-seq results for the planner

	st        *store.Store
	storePath string

	finished     bool
	plannerErr   string
	report       *adapt.Report
	redispatched int
	duplicates   int
	batches      int
	latSum       time.Duration
	latMax       time.Duration

	// cond wakes adaptive dispatchers waiting for their round to drain.
	cond *sync.Cond
}

// Coordinator is the fleet's central daemon state: it plans submitted
// campaigns, leases trial batches to registered agents, merges their result
// streams into per-job stores, and reclaims work from lost agents. All
// methods are safe for concurrent use.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	agents   map[string]*agentState
	jobs     map[string]*job
	leases   map[string]*lease
	jobOrder []string
	jobSeq   int
	agentSeq int
	batchSeq int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator creates the coordinator and its data directory, and
// reloads every job found under DataDir/jobs, recovering completed trials
// from each job's store so a restart re-runs nothing.
func NewCoordinator(opts Options) (*Coordinator, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("fleet: coordinator needs a data directory")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 4
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(filepath.Join(opts.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:   opts,
		agents: map[string]*agentState{},
		jobs:   map[string]*job{},
		leases: map[string]*lease{},
		ctx:    ctx,
		cancel: cancel,
	}
	if err := c.loadJobs(); err != nil {
		cancel()
		return nil, err
	}
	return c, nil
}

// Close stops planner goroutines and closes every job store.
func (c *Coordinator) Close() error {
	c.cancel()
	c.mu.Lock()
	for _, j := range c.jobs {
		j.cond.Broadcast()
	}
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, j := range c.jobs {
		if j.st != nil {
			errs = append(errs, j.st.Close())
			j.st = nil
		}
	}
	return errors.Join(errs...)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log(format, args...)
	}
}

// jobMeta is the per-job metadata persisted for restart resume.
type jobMeta struct {
	V        int       `json:"v"`
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Created  time.Time `json:"created"`
	Adaptive bool      `json:"adaptive,omitempty"`
}

// loadJobs replays DataDir/jobs after a restart. Job IDs advance past every
// directory present, a half-created one included, so a new submission can
// never collide with an on-disk job.
func (c *Coordinator) loadJobs() error {
	dir := filepath.Join(c.opts.DataDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(e.Name(), "j%d", &n); err == nil && n > c.jobSeq {
			c.jobSeq = n
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := c.resumeJob(id); err != nil {
			return fmt.Errorf("fleet: resuming job %s: %w", id, err)
		}
	}
	return nil
}

func (c *Coordinator) resumeJob(id string) error {
	base := filepath.Join(c.opts.DataDir, "jobs", id)
	metaRaw, err := os.ReadFile(filepath.Join(base, "meta.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil // half-created directory from a crash mid-submit; skip
	}
	if err != nil {
		return err
	}
	var meta jobMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(base, "campaign"))
	if err != nil {
		return err
	}
	camp, err := campaign.Parse(raw)
	if err != nil {
		return err
	}
	j, err := c.buildJob(id, camp, meta.Created)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.installJob(j)
	c.mu.Unlock()
	c.logf("fleet: resumed job %s (%d/%d trials done)", id, countState(j, trialDone), len(j.trials))
	return nil
}

// Submit plans and registers a new job from raw campaign file bytes.
func (c *Coordinator) Submit(raw []byte) (submitResponse, error) {
	camp, err := campaign.Parse(raw)
	if err != nil {
		return submitResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.mu.Lock()
	c.jobSeq++
	id := fmt.Sprintf("j%04d", c.jobSeq)
	c.mu.Unlock()

	base := filepath.Join(c.opts.DataDir, "jobs", id)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return submitResponse{}, fmt.Errorf("fleet: %w", err)
	}
	created := c.opts.Now().UTC()
	meta, err := json.Marshal(jobMeta{V: ProtocolVersion, ID: id, Created: created, Name: camp.Name, Adaptive: isAdaptive(camp)})
	if err != nil {
		return submitResponse{}, fmt.Errorf("fleet: %w", err)
	}
	if err := os.WriteFile(filepath.Join(base, "campaign"), raw, 0o644); err != nil {
		return submitResponse{}, fmt.Errorf("fleet: %w", err)
	}
	// meta.json is written last: its presence marks the directory complete,
	// so restart replay can skip half-created directories from a crash.
	if err := os.WriteFile(filepath.Join(base, "meta.json"), meta, 0o644); err != nil {
		return submitResponse{}, fmt.Errorf("fleet: %w", err)
	}
	j, err := c.buildJob(id, camp, created)
	if err != nil {
		return submitResponse{}, err
	}
	c.mu.Lock()
	c.installJob(j)
	c.mu.Unlock()
	c.logf("fleet: job %s submitted: %d trials, adaptive=%v", id, len(j.trials), j.adaptive)
	return submitResponse{V: ProtocolVersion, JobID: id, Trials: len(j.trials), Adaptive: j.adaptive}, nil
}

func isAdaptive(camp *campaign.Campaign) bool {
	_, ok := camp.AdaptConfig()
	return ok
}

// buildJob plans the campaign, opens the job store, and recovers completion
// state from any records the store already holds (restart replay). The
// coordinator owns the central store under its own data directory; the
// campaign's store/resume fields describe local runs and are ignored here.
func (c *Coordinator) buildJob(id string, camp *campaign.Campaign, created time.Time) (*job, error) {
	trials, err := camp.Plan()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	storePath := filepath.Join(c.opts.DataDir, "jobs", id, "store")
	st, err := store.Create(storePath)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	j := &job{
		id:        id,
		name:      camp.Name,
		created:   created,
		adaptive:  isAdaptive(camp),
		camp:      camp,
		exec:      ExecFromCampaign(camp),
		hosts:     camp.Hosts,
		trials:    trials,
		state:     make([]trialState, len(trials)),
		attempts:  make([]int, len(trials)),
		failures:  map[int]string{},
		st:        st,
		storePath: storePath,
	}
	j.cond = sync.NewCond(&c.mu)
	if j.adaptive {
		j.results = map[int]harness.Result{}
	}

	// Replay: a trial is done when some host has already measured its
	// stripped configuration key.
	doneKeys, err := st.Keys()
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	done := map[string]bool{}
	for k := range doneKeys {
		done[harness.StripHostKey(k)] = true
	}
	for i, t := range trials {
		if done[t.Key(camp.Meter)] {
			j.state[i] = trialDone
		}
	}
	if !j.adaptive {
		for i := range trials {
			if j.state[i] == trialUnqueued {
				j.state[i] = trialPending
				j.queue = append(j.queue, i)
			}
		}
		j.finished = len(j.queue) == 0
	}
	return j, nil
}

// installJob registers the job and, for adaptive campaigns, starts its
// planner goroutine. Caller holds c.mu.
func (c *Coordinator) installJob(j *job) {
	c.jobs[j.id] = j
	c.jobOrder = append(c.jobOrder, j.id)
	if j.adaptive && !j.finished {
		c.wg.Add(1)
		go c.runPlanner(j)
	}
}

// runPlanner drives an adaptive job: the planner selects batches and the
// fleetDispatcher pushes them through the lease table, blocking until agents
// drain each round.
func (c *Coordinator) runPlanner(j *job) {
	defer c.wg.Done()
	cfg, _ := j.camp.AdaptConfig()
	prior, pool, err := c.splitPrior(j)
	if err != nil {
		c.finishPlanner(j, nil, err)
		return
	}
	planner := &adapt.Planner{
		Cfg:      cfg,
		Dispatch: &fleetDispatcher{c: c, j: j},
		Log:      c.opts.Log,
	}
	// Results are persisted at ingest, so the planner needs no extra sink.
	rep, err := planner.Run(c.ctx, pool, prior, nil)
	c.finishPlanner(j, rep, err)
}

// splitPrior loads the job store and splits the plan into already-measured
// prior results and the not-yet-run candidate pool, so a restarted adaptive
// job seeds its fit instead of re-running trials.
func (c *Coordinator) splitPrior(j *job) (prior []harness.Result, pool []harness.Trial, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byKey := map[string]harness.Result{}
	for rec, qerr := range j.st.Query(store.Filter{}) {
		if qerr != nil {
			return nil, nil, qerr
		}
		byKey[harness.StripHostKey(rec.Key)] = rec.Result
	}
	for _, t := range j.trials {
		if r, ok := byKey[t.Key(j.camp.Meter)]; ok {
			prior = append(prior, r)
		} else {
			pool = append(pool, t)
		}
	}
	return prior, pool, nil
}

func (c *Coordinator) finishPlanner(j *job, rep *adapt.Report, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j.report = rep
	j.finished = true
	if err != nil {
		j.plannerErr = err.Error()
		c.logf("fleet: job %s planner failed: %v", j.id, err)
	} else {
		c.logf("fleet: job %s planner done (%d trials run)", j.id, repRan(rep))
	}
}

func repRan(rep *adapt.Report) int {
	if rep == nil {
		return 0
	}
	return rep.RanTrials
}

// fleetDispatcher adapts the coordinator's lease table to adapt.Dispatcher:
// RunPlan queues the round's trials and blocks until agents have drained
// every one (done or failed), feeding results to the planner's sink. The
// planner runs under the coordinator's own context (runPlanner), so that
// one context both cancels a round and ends it when the coordinator closes.
type fleetDispatcher struct {
	c *Coordinator
	j *job
}

func (d *fleetDispatcher) RunPlan(ctx context.Context, trials []harness.Trial, sink harness.ResultSink) error {
	c, j := d.c, d.j
	stop := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		j.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stop()

	c.mu.Lock()
	defer c.mu.Unlock()
	seqs := make([]int, 0, len(trials))
	for _, t := range trials {
		if t.Seq < 0 || t.Seq >= len(j.trials) {
			return fmt.Errorf("fleet: dispatcher given unknown trial seq %d", t.Seq)
		}
		if j.state[t.Seq] == trialUnqueued {
			j.state[t.Seq] = trialPending
			j.queue = append(j.queue, t.Seq)
		}
		seqs = append(seqs, t.Seq)
	}
	for {
		drained := true
		for _, s := range seqs {
			if st := j.state[s]; st != trialDone && st != trialFailed {
				drained = false
				break
			}
		}
		if drained {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		j.cond.Wait()
	}
	var errs []error
	for _, s := range seqs {
		switch j.state[s] {
		case trialDone:
			if sink != nil {
				if err := sink.Consume(j.results[s]); err != nil {
					return err
				}
			}
		case trialFailed:
			errs = append(errs, &harness.TrialError{Trial: j.trials[s], Err: errors.New(j.failures[s])})
		}
	}
	return errors.Join(errs...)
}

// Register adds (or re-adds) an agent under a fresh ID.
func (c *Coordinator) Register(h HostInfo) (registerResponse, error) {
	if err := h.Validate(); err != nil {
		return registerResponse{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.agentSeq++
	id := fmt.Sprintf("a%04d", c.agentSeq)
	c.agents[id] = &agentState{id: id, host: h, lastSeen: c.opts.Now()}
	c.logf("fleet: agent %s registered: %s (%s/%s, %d cpus)", id, h.Name, h.OS, h.Arch, h.CPUs)
	return registerResponse{
		V:              ProtocolVersion,
		AgentID:        id,
		HeartbeatEvery: c.heartbeatEvery(),
		LeaseTTL:       c.opts.LeaseTTL,
	}, nil
}

// heartbeatEvery is the check-in period handed to registering agents.
func (c *Coordinator) heartbeatEvery() time.Duration { return c.opts.LeaseTTL / 3 }

// Heartbeat refreshes an agent's liveness.
func (c *Coordinator) Heartbeat(agentID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.agents[agentID]
	if !ok {
		return ErrUnknownAgent
	}
	a.lastSeen = c.opts.Now()
	a.lost = false
	return nil
}

// Lease grants the calling agent up to max trials of work from the oldest
// eligible job, or nil when nothing is currently assignable.
func (c *Coordinator) Lease(agentID string, max int) (*Batch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.agents[agentID]
	if !ok {
		return nil, ErrUnknownAgent
	}
	now := c.opts.Now()
	a.lastSeen = now
	a.lost = false
	c.reapLocked(now)
	if max <= 0 || max > c.opts.BatchSize {
		max = c.opts.BatchSize
	}
	for _, id := range c.jobOrder {
		j := c.jobs[id]
		if j.finished || len(j.queue) == 0 {
			continue
		}
		if len(j.hosts) > 0 && !containsHost(j.hosts, a.host.Name) {
			continue
		}
		seqs := c.takeTrials(j, a, max)
		if len(seqs) == 0 {
			continue
		}
		c.batchSeq++
		b := &Batch{
			V:          ProtocolVersion,
			JobID:      j.id,
			BatchID:    fmt.Sprintf("b%06d", c.batchSeq),
			Exec:       j.exec,
			LeaseUntil: now.Add(c.opts.LeaseTTL),
		}
		l := &lease{
			batchID:     b.BatchID,
			jobID:       j.id,
			agentID:     agentID,
			granted:     now,
			deadline:    b.LeaseUntil,
			outstanding: map[int]bool{},
		}
		for _, s := range seqs {
			j.state[s] = trialLeased
			j.attempts[s]++
			l.outstanding[s] = true
			b.Trials = append(b.Trials, j.trials[s])
		}
		c.leases[b.BatchID] = l
		c.logf("fleet: leased %s to %s: job %s, %d trials", b.BatchID, agentID, j.id, len(b.Trials))
		return b, nil
	}
	return nil, nil
}

// takeTrials pops up to max pending trials the agent can actually run
// (enough CPUs for the trial's width). Unrunnable or stale queue entries
// are skipped; skipped-but-runnable-elsewhere trials stay queued.
func (c *Coordinator) takeTrials(j *job, a *agentState, max int) []int {
	var taken []int
	var kept []int
	for i, s := range j.queue {
		if len(taken) == max {
			kept = append(kept, j.queue[i:]...)
			break
		}
		if j.state[s] != trialPending {
			continue // completed via another path while queued
		}
		if j.trials[s].Width() > a.host.CPUs {
			kept = append(kept, s)
			continue
		}
		taken = append(taken, s)
	}
	j.queue = kept
	return taken
}

func containsHost(hosts []string, name string) bool {
	for _, h := range hosts {
		if h == name {
			return true
		}
	}
	return false
}

// ingestStatus classifies one envelope's fate.
type ingestStatus int

const (
	ingestAccepted ingestStatus = iota
	ingestDuplicate
	ingestStale
)

// Ingest merges one result envelope. Results for already-done trials are
// idempotently counted as duplicates (normal after a lease reclaim race).
// An error envelope fails its trial only when it names a live lease of the
// posting agent that still holds the trial; any other error is stale and
// dropped, because the trial was re-dispatched, already settled, or is
// another agent's to report.
func (c *Coordinator) Ingest(agentID string, env ResultEnvelope) (ingestStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.agents[agentID]
	if !ok {
		return 0, ErrUnknownAgent
	}
	now := c.opts.Now()
	a.lastSeen = now
	if env.V > ProtocolVersion {
		return 0, fmt.Errorf("%w: envelope protocol v%d is newer than coordinator v%d", ErrBadRequest, env.V, ProtocolVersion)
	}
	j, ok := c.jobs[env.JobID]
	if !ok {
		return 0, fmt.Errorf("%w: job %s", ErrNotFound, env.JobID)
	}
	if env.Seq < 0 || env.Seq >= len(j.trials) {
		return 0, fmt.Errorf("%w: job %s has no trial seq %d", ErrBadRequest, env.JobID, env.Seq)
	}
	if want := j.trials[env.Seq].Key(j.camp.Meter); env.Key != want {
		return 0, fmt.Errorf("%w: envelope key %q does not match trial %d key %q", ErrBadRequest, env.Key, env.Seq, want)
	}
	if (env.Result == nil) == (env.Error == "") {
		return 0, fmt.Errorf("%w: envelope must carry exactly one of result or error", ErrBadRequest)
	}
	// The result is stored under its own key, so it must be the trial's
	// configuration too, or a replay after restart would miss the trial.
	if env.Result != nil {
		if got := harness.StripHostKey(harness.ResultKey(*env.Result)); got != env.Key {
			return 0, fmt.Errorf("%w: result key %q does not match envelope key %q", ErrBadRequest, got, env.Key)
		}
	}

	l := c.leases[env.BatchID]
	if l != nil && l.jobID != env.JobID {
		l = nil
	}
	// settle retires the envelope's seq from its lease once the envelope has
	// a classified outcome — deliberately NOT on a store-append failure, so
	// the lease keeps the seq and expiry re-dispatches the trial. A batch is
	// complete when every leased seq got an envelope; that closes the
	// dispatch-latency measurement.
	settle := func() {
		if l != nil {
			delete(l.outstanding, env.Seq)
			if len(l.outstanding) == 0 {
				lat := now.Sub(l.granted)
				j.batches++
				j.latSum += lat
				if lat > j.latMax {
					j.latMax = lat
				}
				delete(c.leases, env.BatchID)
			}
		}
		c.checkFinished(j)
		j.cond.Broadcast()
	}

	if j.state[env.Seq] == trialDone {
		j.duplicates++
		settle()
		return ingestDuplicate, nil
	}
	if env.Error != "" {
		if l == nil || l.agentID != agentID || !l.outstanding[env.Seq] {
			// The lease was reclaimed and the trial re-dispatched, the
			// trial already settled, or the trial is not this agent's.
			return ingestStale, nil
		}
		j.state[env.Seq] = trialFailed
		j.failures[env.Seq] = env.Error
		c.logf("fleet: job %s trial %d failed on %s: %s", j.id, env.Seq, agentID, env.Error)
		settle()
		return ingestAccepted, nil
	}

	// Stamp the executing machine's identity from the agent's registration —
	// never from the envelope — so results cannot be misattributed.
	r := *env.Result
	r.Host = a.host.Name
	r.Microarch = a.host.Microarch
	if _, err := j.st.Append([]harness.Result{r}); err != nil {
		return 0, fmt.Errorf("fleet: appending to job %s store: %w", j.id, err)
	}
	j.state[env.Seq] = trialDone
	delete(j.failures, env.Seq)
	if j.results != nil {
		j.results[env.Seq] = r
	}
	a.completed++
	settle()
	return ingestAccepted, nil
}

// reapLocked reclaims expired leases and leases held by lost agents,
// requeueing their outstanding trials (or failing them once re-dispatch
// attempts are exhausted). Caller holds c.mu.
func (c *Coordinator) reapLocked(now time.Time) {
	lostAfter := 3 * c.heartbeatEvery()
	for _, a := range c.agents {
		if !a.lost && now.Sub(a.lastSeen) > lostAfter {
			a.lost = true
			c.logf("fleet: agent %s (%s) lost: last seen %v ago", a.id, a.host.Name, now.Sub(a.lastSeen).Round(time.Millisecond))
		}
	}
	for id, l := range c.leases {
		agentLost := c.agents[l.agentID] == nil || c.agents[l.agentID].lost
		if now.Before(l.deadline) && !agentLost {
			continue
		}
		j := c.jobs[l.jobID]
		for s := range l.outstanding {
			if j.state[s] != trialLeased {
				continue
			}
			if j.attempts[s] >= maxAttempts {
				j.state[s] = trialFailed
				j.failures[s] = fmt.Sprintf("lease expired %d times (agents crashed or stalled)", j.attempts[s])
				c.logf("fleet: job %s trial %d failed permanently after %d lease expiries", j.id, s, j.attempts[s])
				continue
			}
			j.state[s] = trialPending
			j.queue = append(j.queue, s)
			j.redispatched++
			c.logf("fleet: job %s trial %d reclaimed from %s, requeued (attempt %d)", j.id, s, id, j.attempts[s])
		}
		delete(c.leases, id)
		c.checkFinished(j)
		j.cond.Broadcast()
	}
}

// checkFinished marks an exhaustive job finished once no trial is pending
// or leased. Adaptive jobs finish when their planner returns.
func (c *Coordinator) checkFinished(j *job) {
	if j.adaptive || j.finished {
		return
	}
	for _, st := range j.state {
		if st == trialPending || st == trialLeased {
			return
		}
	}
	j.finished = true
	c.logf("fleet: job %s finished: %d done, %d failed", j.id, countState(j, trialDone), countState(j, trialFailed))
}

func countState(j *job, want trialState) int {
	n := 0
	for _, st := range j.state {
		if st == want {
			n++
		}
	}
	return n
}

// Reap runs one lease-reclaim pass at the current clock; the HTTP server
// calls it periodically so reclaim does not depend on agent traffic.
func (c *Coordinator) Reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.opts.Now())
}

// Status reports one job's live accounting.
func (c *Coordinator) Status(jobID string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: job %s", ErrNotFound, jobID)
	}
	return c.statusLocked(j), nil
}

// Jobs lists every job's status in submission order.
func (c *Coordinator) Jobs() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.jobOrder))
	for _, id := range c.jobOrder {
		out = append(out, c.statusLocked(c.jobs[id]))
	}
	return out
}

func (c *Coordinator) statusLocked(j *job) JobStatus {
	s := JobStatus{
		V:            ProtocolVersion,
		ID:           j.id,
		Name:         j.name,
		Created:      j.created,
		Finished:     j.finished,
		Adaptive:     j.adaptive,
		Trials:       len(j.trials),
		Pending:      countState(j, trialPending),
		Leased:       countState(j, trialLeased),
		Done:         countState(j, trialDone),
		Failed:       countState(j, trialFailed),
		Redispatched: j.redispatched,
		Duplicates:   j.duplicates,
		Batches:      j.batches,
		StorePath:    j.storePath,
		PlannerErr:   j.plannerErr,
		Report:       j.report,
	}
	if j.batches > 0 {
		s.DispatchMeanMS = float64(j.latSum.Microseconds()) / float64(j.batches) / 1000
		s.DispatchMaxMS = float64(j.latMax.Microseconds()) / 1000
	}
	for seq, msg := range j.failures {
		if j.state[seq] == trialFailed {
			s.Failures = append(s.Failures, TrialFailure{Seq: seq, Key: j.trials[seq].Key(j.camp.Meter), Error: msg})
		}
	}
	sort.Slice(s.Failures, func(a, b int) bool { return s.Failures[a].Seq < s.Failures[b].Seq })
	return s
}

// Agents lists every registered agent.
func (c *Coordinator) Agents() []AgentStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.opts.Now())
	out := make([]AgentStatus, 0, len(c.agents))
	for _, a := range c.agents {
		out = append(out, AgentStatus{ID: a.id, Host: a.host, LastSeen: a.lastSeen, Lost: a.lost, Completed: a.completed})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// ResultsPath returns the job's store path for streaming reads. Callers
// open a fresh read-only handle (store.Open) so the coordinator's appender
// is never shared across goroutines; Store.Append flushes per call, so a
// fresh reader sees every merged result.
func (c *Coordinator) ResultsPath(jobID string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[jobID]
	if !ok {
		return "", fmt.Errorf("%w: job %s", ErrNotFound, jobID)
	}
	return j.storePath, nil
}
