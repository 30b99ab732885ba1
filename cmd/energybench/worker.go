package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"energybench/internal/harness"
)

// workerEnvMarker is set in every worker child's environment. The production
// binary ignores it (the worker-trial argv is what selects worker mode), but
// it lets a `go test` binary re-exec itself as the CLI: TestMain sees the
// marker and dispatches to run() instead of the test runner.
const workerEnvMarker = "ENERGYBENCH_WORKER"

// cmdWorkerTrial is the child half of the subprocess executor: it reads one
// serialized harness.Trial from stdin, runs it in-process (pinning, warm-up,
// metering — in this quiet single-purpose address space), and writes exactly
// one WorkerEnvelope to stdout. All failures are reported through the
// envelope so the parent gets a structured per-trial error; the nonzero exit
// is just a secondary signal.
func cmdWorkerTrial(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("worker-trial", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ec := meterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runWorkerTrial(ctx, *ec, stdin)
	env := harness.WorkerEnvelope{V: harness.WorkerProtocolVersion}
	if err != nil {
		env.Error = err.Error()
	} else {
		env.Result = &res
	}
	if encErr := json.NewEncoder(stdout).Encode(env); encErr != nil {
		return fmt.Errorf("worker-trial: writing envelope: %w", encErr)
	}
	if err != nil {
		return fmt.Errorf("worker-trial: %w", err)
	}
	return nil
}

func runWorkerTrial(ctx context.Context, ec execConfig, stdin io.Reader) (harness.Result, error) {
	var t harness.Trial
	if err := json.NewDecoder(stdin).Decode(&t); err != nil {
		return harness.Result{}, fmt.Errorf("decoding trial from stdin: %w", err)
	}
	// External workloads are run and metered by the parent's extern
	// executor, which only delegates kernel trials to worker children;
	// an extern trial arriving here means a mis-wired dispatcher.
	if t.Extern != nil {
		return harness.Result{}, fmt.Errorf("trial runs external workload %q: extern trials are executed by the parent process, not worker children", t.Extern.Workload)
	}
	exec, err := newExecutor(ec, nil)
	if err != nil {
		return harness.Result{}, err
	}
	return exec.Execute(ctx, t)
}
