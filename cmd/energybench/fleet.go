package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"energybench/internal/fleet"
	"energybench/internal/harness"
)

// cmdServe runs the fleet coordinator daemon: it accepts campaign
// submissions over HTTP, leases trial batches to registered agents, and
// merges their results into per-job stores under --data.
func cmdServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:7979", "address to serve the coordinator API on (use :0 for an ephemeral port)")
		dataDir  = fs.String("data", "", "coordinator data directory: campaigns, job metadata, and merged stores live here (required)")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second, "how long an agent holds a trial batch before it is reclaimed and re-dispatched")
		batch    = fs.Int("batch", 4, "maximum trials granted per agent lease")
		addrFile = fs.String("addr-file", "", "write the bound base URL to this file once listening (for scripts using --listen=:0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("--data is required")
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("--lease-ttl must be positive, got %v", *leaseTTL)
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	coord, err := fleet.NewCoordinator(fleet.Options{
		DataDir:   *dataDir,
		LeaseTTL:  *leaseTTL,
		BatchSize: *batch,
		Log:       logf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	baseURL := "http://" + ln.Addr().String()
	logf("fleet: coordinator listening on %s (data %s)", baseURL, *dataDir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(baseURL+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}

	// Reclaim expired leases on a timer, so a dead agent's work is
	// re-dispatched even when no other agent traffic triggers a reap; the
	// floor keeps a TTL of nanoseconds from a zero or spinning ticker.
	reapCtx, stopReap := context.WithCancel(ctx)
	defer stopReap()
	go func() {
		t := time.NewTicker(max(*leaseTTL/4, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-reapCtx.Done():
				return
			case <-t.C:
				coord.Reap()
			}
		}
	}()

	srv := &http.Server{Handler: coord.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		logf("fleet: coordinator shutting down")
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shctx)
	case err := <-done:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

// cmdAgent runs a fleet agent daemon: it registers this machine with the
// coordinator and loops executing trial batches through the same
// scheduler/executor stack a local sweep uses and posting the results back,
// each post asking for the next batch.
func cmdAgent(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("agent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordURL = fs.String("coordinator", "", "coordinator base URL, e.g. http://host:7979 (required)")
		name     = fs.String("name", "", "host name to register as (default: the machine hostname); must be unique across the fleet")
		poll     = fs.Duration("poll", 2*time.Second, "idle poll interval when no work is assignable")
		cpus     = fs.Int("cpus", 0, "CPU count to advertise to the coordinator (0: detected); trials wider than this are never routed here, so raising it opportunistically oversubscribes")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("--coordinator is required")
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	host := fleet.LocalHost(*name)
	if *cpus > 0 {
		host.CPUs = *cpus
	}
	a := &fleet.Agent{
		Coordinator: strings.TrimRight(*coordURL, "/"),
		Host:        host,
		Runner:      localBatchRunner(logf),
		Poll:        *poll,
		Log:         logf,
	}
	return a.Run(ctx)
}

// batchRunner executes leased batches through the same stack a local sweep
// uses: the Scheduler dispatching the batch's trials over newExecutor's
// stack for the batch's execution environment. It keeps the kernel stack
// (meter, and InProcess with its workspaces or Subprocess) from one batch to
// the next while the environment stays the same, so a job's batches build
// each workspace once, as one local run does, and drops it when the agent
// goes idle. The extern layer is new for every batch: its build-step
// outcomes belong to one job's campaign, and job ids repeat after a
// coordinator restarts on a fresh data directory.
type batchRunner struct {
	log func(string, ...any)
	ec  fleet.ExecConfig // the environment ks was built for
	ks  kernelStack      // zero while idle
}

func localBatchRunner(logf func(string, ...any)) *batchRunner {
	return &batchRunner{log: logf}
}

func (r *batchRunner) RunBatch(ctx context.Context, b fleet.Batch, sink harness.ResultSink) error {
	if r.ks.kernels == nil || r.ec != b.Exec {
		r.Idle()
		ks, err := newKernelStack(execConfig{ExecConfig: b.Exec})
		if err != nil {
			return err
		}
		r.ec, r.ks = b.Exec, ks
	}
	sched := &harness.Scheduler{Executor: r.ks.executor(b.Exec.TrialTimeout, r.log), Parallel: b.Exec.Parallel, Log: r.log}
	return sched.RunPlan(ctx, b.Trials, sink)
}

// Idle drops the kept kernel stack, so an idle agent holds no workspaces.
func (r *batchRunner) Idle() {
	r.ks = kernelStack{}
}

// cmdSubmit posts a campaign file to a coordinator and optionally waits for
// the job to finish, printing the final job status as JSON.
func cmdSubmit(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordURL = fs.String("coordinator", "", "coordinator base URL (required)")
		path     = fs.String("campaign", "", "campaign file to submit (YAML or JSON; required)")
		wait     = fs.Bool("wait", false, "poll the job until it finishes and print the final status")
		analyze  = fs.Bool("analyze", false, "after the job finishes, fetch and print its analysis report instead of the raw status (implies --wait)")
		activity = fs.String("activity", "", "activity source for --analyze: nominal (default) or counters")
		timeout  = fs.Duration("timeout", 0, "give up waiting after this long (0: no limit; requires --wait)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" || *path == "" {
		return fmt.Errorf("--coordinator and --campaign are required")
	}
	if *analyze {
		*wait = true
	}
	if *activity != "" && !*analyze {
		return fmt.Errorf("--activity requires --analyze")
	}
	if *timeout != 0 && !*wait {
		return fmt.Errorf("--timeout requires --wait")
	}
	base := strings.TrimRight(*coordURL, "/")
	raw, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", strings.NewReader(string(raw)))
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var sub struct {
		JobID    string `json:"job_id"`
		Trials   int    `json:"trials"`
		Adaptive bool   `json:"adaptive"`
	}
	if err := doJSON(client, req, &sub); err != nil {
		return fmt.Errorf("submitting campaign: %w", err)
	}
	fmt.Fprintf(stderr, "submitted job %s: %d trials\n", sub.JobID, sub.Trials)
	if !*wait {
		return writeJSON(stdout, sub)
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Poll soon after submitting, then back off to a 500 ms ceiling, so a
	// short job is reported within milliseconds of finishing and a long
	// one costs the coordinator two status requests a second.
	pause := 10 * time.Millisecond
	for {
		st, err := fetchJobStatus(ctx, client, base, sub.JobID)
		if err != nil {
			return err
		}
		if st.Finished {
			if *analyze {
				// The status document still lands on stderr so failures stay
				// visible; stdout carries the analysis JSON alone, pipeable.
				fmt.Fprintf(stderr, "job %s finished: %d/%d done, %d failed\n", st.ID, st.Done, st.Trials, st.Failed)
				if err := fetchJobAnalysis(ctx, client, base, sub.JobID, *activity, stdout); err != nil {
					return err
				}
			} else if err := writeJSON(stdout, st); err != nil {
				return err
			}
			if st.PlannerErr != "" {
				return fmt.Errorf("job %s planner failed: %s", st.ID, st.PlannerErr)
			}
			if st.Failed > 0 {
				return fmt.Errorf("job %s finished with %d failed trials", st.ID, st.Failed)
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for job %s: %w (last: %d/%d done)", sub.JobID, ctx.Err(), st.Done, st.Trials)
		case <-time.After(pause):
		}
		pause = min(2*pause, 500*time.Millisecond)
	}
}

// fetchJobAnalysis retrieves the coordinator's analysis report for a finished
// job — the same document a local `analyze` over the downloaded store would
// produce — and writes it to out verbatim.
func fetchJobAnalysis(ctx context.Context, client *http.Client, base, id, activity string, out io.Writer) error {
	url := base + "/jobs/" + id + "/analyze"
	if activity != "" {
		url += "?activity=" + activity
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	var rep json.RawMessage
	if err := doJSON(client, req, &rep); err != nil {
		return fmt.Errorf("fetching job %s analysis: %w", id, err)
	}
	var pretty any
	if err := json.Unmarshal(rep, &pretty); err != nil {
		return err
	}
	return writeJSON(out, pretty)
}

func fetchJobStatus(ctx context.Context, client *http.Client, base, id string) (fleet.JobStatus, error) {
	var st fleet.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	if err := doJSON(client, req, &st); err != nil {
		return st, fmt.Errorf("fetching job %s status: %w", id, err)
	}
	return st, nil
}

// doJSON performs the request and decodes a JSON response, surfacing the
// coordinator's structured {"error": ...} body on non-2xx statuses.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
			return fmt.Errorf("HTTP %d: %s", resp.StatusCode, ae.Error)
		}
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}
