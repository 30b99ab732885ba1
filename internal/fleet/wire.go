package fleet

import (
	"fmt"
	"time"

	"energybench/internal/adapt"
	"energybench/internal/campaign"
	"energybench/internal/harness"
)

// ProtocolVersion is the version of every JSON document the coordinator and
// its agents exchange — registration, leases, and the NDJSON result stream.
// Both sides stamp it and reject documents from a newer protocol, so a
// version-skewed binary in the fleet fails loudly at the wire instead of
// silently misparsing, exactly like the subprocess worker envelope it
// mirrors (harness.WorkerProtocolVersion).
const ProtocolVersion = 1

// HostInfo is the capability advertisement an agent registers with: enough
// for the coordinator to stamp results with the executing machine's
// identity and for host selectors to route work.
type HostInfo struct {
	// Name identifies the machine; it becomes the host dimension of every
	// result key the agent produces, so it must be unique across the fleet
	// and must not contain '|' or '/' (key delimiters).
	Name string `json:"name"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// CPUs is the schedulable logical CPU count; the coordinator never
	// leases an agent a trial wider than this.
	CPUs int `json:"cpus"`
	// Microarch labels the CPU model (e.g. /proc/cpuinfo's "model name");
	// it rides into the store key's microarch dimension when known.
	Microarch string `json:"microarch,omitempty"`
}

// Validate checks the advertisement is usable as a key dimension.
func (h HostInfo) Validate() error {
	if h.Name == "" {
		return fmt.Errorf("fleet: host has no name")
	}
	for _, r := range h.Name {
		if r == '|' || r == '/' {
			return fmt.Errorf("fleet: host name %q must not contain '|' or '/' (they delimit store keys)", h.Name)
		}
	}
	if h.CPUs < 1 {
		return fmt.Errorf("fleet: host %q advertises %d CPUs", h.Name, h.CPUs)
	}
	return nil
}

// ExecConfig is the execution environment a batch's trials must run under:
// the energy backend (with any mock parameters, so planted-model campaigns
// behave identically on every agent) and the local executor discipline.
// It travels with every batch, so agents need no out-of-band configuration.
type ExecConfig struct {
	Meter        string        `json:"meter"`
	MockWatts    float64       `json:"mock_watts,omitempty"`
	MockModel    string        `json:"mock_model,omitempty"`
	MockNoiseW   float64       `json:"mock_noise_w,omitempty"`
	Executor     string        `json:"executor"`
	Parallel     int           `json:"parallel"`
	TrialTimeout time.Duration `json:"trial_timeout_ns,omitempty"`
}

// ExecFromCampaign derives the batch execution environment from a parsed
// (and therefore already validated) campaign.
func ExecFromCampaign(c *campaign.Campaign) ExecConfig {
	timeout, _ := c.Timeout() // validated at parse time
	ec := ExecConfig{
		Meter:        c.Meter,
		MockModel:    c.MockModel,
		Executor:     c.Executor,
		TrialTimeout: timeout,
	}
	if c.MockWatts != nil {
		ec.MockWatts = *c.MockWatts
	}
	if c.MockNoiseW != nil {
		ec.MockNoiseW = *c.MockNoiseW
	}
	if c.Parallel != nil {
		ec.Parallel = *c.Parallel
	}
	return ec
}

// Batch is one leased unit of work: a slice of the job's planned trials
// assigned to a single agent, with the execution environment and the lease
// deadline. An agent that cannot finish by the deadline should expect the
// coordinator to reclaim and re-dispatch the unfinished trials.
type Batch struct {
	V       int             `json:"v"`
	JobID   string          `json:"job"`
	BatchID string          `json:"batch"`
	Trials  []harness.Trial `json:"trials"`
	Exec    ExecConfig      `json:"exec"`
	// LeaseUntil is the coordinator-clock deadline after which the lease
	// is eligible for reclaim.
	LeaseUntil time.Time `json:"lease_until"`
}

// ResultEnvelope is one line of the NDJSON result stream an agent posts
// back: either the measured result of one trial or a structured per-trial
// execution error, never both — the same shape discipline as the worker
// envelope. Key is the trial's hostless configuration key; the coordinator
// uses it for idempotent completion matching and stamps the host dimension
// itself from the agent's registration, so an agent cannot misattribute
// results to another machine.
type ResultEnvelope struct {
	V       int    `json:"v"`
	JobID   string `json:"job"`
	BatchID string `json:"batch"`
	// Seq is the trial's position in the job plan; Key its configuration
	// key under the job's meter. Both identify the trial so either side
	// can detect a mismatch.
	Seq    int             `json:"seq"`
	Key    string          `json:"key"`
	Result *harness.Result `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// registerRequest / registerResponse are the agent registration exchange.
type registerRequest struct {
	V    int      `json:"v"`
	Host HostInfo `json:"host"`
}

type registerResponse struct {
	V       int    `json:"v"`
	AgentID string `json:"agent_id"`
	// HeartbeatEvery is how often the agent must check in to keep its
	// leases; LeaseTTL is the batch deadline horizon it will be granted.
	HeartbeatEvery time.Duration `json:"heartbeat_every_ns"`
	LeaseTTL       time.Duration `json:"lease_ttl_ns"`
}

// leaseRequest asks for up to Max trials of work.
type leaseRequest struct {
	V   int `json:"v"`
	Max int `json:"max"`
}

// grant is the coordinator's answer to a request for work: at most one
// batch; a nil batch means no work is currently assignable and the agent
// should ask again after RetryAfter, which is then always positive.
type grant struct {
	Batch      *Batch        `json:"batch,omitempty"`
	RetryAfter time.Duration `json:"retry_after_ns,omitempty"`
}

// leaseResponse answers a lease request.
type leaseResponse struct {
	V int `json:"v"`
	grant
}

// ingestResponse summarizes one result-stream POST: how many envelopes were
// newly accepted, how many were idempotent duplicates of already-completed
// trials (normal after a lease reclaim race), and how many were stale
// (error envelopes for trials since re-dispatched to another agent). A post
// that asked for its agent's next batch (?next=) also carries the grant a
// lease request would have; otherwise the grant stays empty, as it does
// from a coordinator that predates the request.
type ingestResponse struct {
	V        int `json:"v"`
	Accepted int `json:"accepted"`
	Dups     int `json:"duplicates"`
	Stale    int `json:"stale"`
	grant
}

// submitResponse acknowledges a job submission.
type submitResponse struct {
	V      int    `json:"v"`
	JobID  string `json:"job_id"`
	Trials int    `json:"trials"`
	// Adaptive marks planner-driven jobs, whose trial accounting grows
	// round by round instead of being fixed at submit.
	Adaptive bool `json:"adaptive,omitempty"`
}

// TrialFailure is one permanently failed trial in a job status document.
type TrialFailure struct {
	Seq   int    `json:"seq"`
	Key   string `json:"key"`
	Error string `json:"error"`
}

// JobStatus is the GET /jobs/{id} document: live trial accounting, lease
// robustness counters, and the end-to-end dispatch latency statistics the
// fleet smoke publishes as BENCH_fleet.json.
type JobStatus struct {
	V        int       `json:"v"`
	ID       string    `json:"id"`
	Name     string    `json:"name,omitempty"`
	Created  time.Time `json:"created"`
	Finished bool      `json:"finished"`
	Adaptive bool      `json:"adaptive,omitempty"`
	Trials   int       `json:"trials"`
	Pending  int       `json:"pending"`
	Leased   int       `json:"leased"`
	Done     int       `json:"done"`
	Failed   int       `json:"failed"`
	// Redispatched counts trials reclaimed from expired leases and queued
	// again; Duplicates counts idempotently ignored second results.
	Redispatched int `json:"redispatched"`
	Duplicates   int `json:"duplicates"`
	// Dispatch latency: wall clock from lease grant to the batch's last
	// result, across completed batches.
	Batches        int     `json:"batches"`
	DispatchMeanMS float64 `json:"dispatch_mean_ms,omitempty"`
	DispatchMaxMS  float64 `json:"dispatch_max_ms,omitempty"`
	// StorePath is the coordinator-local path of the job's merged store.
	StorePath string         `json:"store_path"`
	Failures  []TrialFailure `json:"failures,omitempty"`
	// Report is the adaptive planner's outcome document, set once the
	// planner returns; PlannerErr carries its failure, if any.
	Report     *adapt.Report `json:"report,omitempty"`
	PlannerErr string        `json:"planner_err,omitempty"`
}

// AgentStatus is one row of the GET /agents listing.
type AgentStatus struct {
	ID        string    `json:"id"`
	Host      HostInfo  `json:"host"`
	LastSeen  time.Time `json:"last_seen"`
	Lost      bool      `json:"lost,omitempty"`
	Completed int       `json:"completed"`
}

// apiError is the structured error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}
