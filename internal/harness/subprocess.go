package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// WorkerProtocolVersion is the version of the JSON envelope exchanged
// between the Subprocess executor and a `worker-trial` child. The child
// stamps it into every envelope; the parent rejects envelopes from a newer
// protocol so a version-skewed binary fails loudly instead of silently
// misparsing.
const WorkerProtocolVersion = 1

// WorkerEnvelope is the worker child's entire stdout: either the measured
// result or a structured execution error, never both (the parent rejects
// an envelope with both, or neither). Keeping the protocol
// to one JSON document per process keeps crash detection trivial — anything
// that does not parse as an envelope is a crashed or misbehaving child.
type WorkerEnvelope struct {
	V      int     `json:"v"`
	Result *Result `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// TrialError attributes an execution failure to one planned trial. The
// Scheduler records these and keeps sweeping: a crashed or timed-out worker
// child loses exactly one trial, not the whole campaign.
type TrialError struct {
	Trial Trial
	Err   error
}

func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d (%s/t%d/%s): %v",
		e.Trial.Seq, e.Trial.Name(), e.Trial.Threads, e.Trial.Placement, e.Err)
}

func (e *TrialError) Unwrap() error { return e.Err }

// Subprocess executes each trial in a freshly exec'd single-purpose child
// process, so pinning, warm-up, and metering happen in a quiet address space
// unperturbed by the coordinator's own GC cycles and goroutines (the
// isolation nanoBench argues is what makes micro-benchmark numbers
// trustworthy). The trial is serialized as JSON on the child's stdin; the
// child replies with one WorkerEnvelope on stdout. A crash, timeout, or
// protocol violation surfaces as an error for that trial only — callers like
// the Scheduler continue the sweep.
type Subprocess struct {
	// Binary is the executable to spawn, typically the running energybench
	// binary itself (os.Executable()).
	Binary string
	// Args is the full argument vector after the binary name, e.g.
	// ["worker-trial", "--meter=mock", "--mock-watts=42"]. The caller owns
	// meter configuration; this executor is meter-agnostic.
	Args []string
	// Env entries are appended to the child's inherited environment.
	// Tests use this to make a re-exec'd test binary act as the CLI.
	Env []string
	// Timeout bounds one trial's wall clock; 0 means no limit. On expiry the
	// child is killed and the trial fails with a timeout error.
	Timeout time.Duration
}

// Execute serializes the trial to a child process and decodes its envelope.
func (e *Subprocess) Execute(ctx context.Context, t Trial) (Result, error) {
	if e.Binary == "" {
		return Result{}, fmt.Errorf("harness: subprocess executor has no binary")
	}
	payload, err := json.Marshal(t)
	if err != nil {
		return Result{}, fmt.Errorf("harness: encoding trial: %w", err)
	}
	parent := ctx
	if e.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, e.Binary, e.Args...)
	cmd.Stdin = bytes.NewReader(payload)
	var stdout bytes.Buffer
	var stderr TailBuffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	cmd.Env = append(cmd.Environ(), e.Env...)
	// After the child is killed (timeout, cancellation), don't wait forever
	// for its stdio pipes: a grandchild inheriting stdout would otherwise
	// wedge the whole sweep on one dead worker.
	cmd.WaitDelay = 3 * time.Second
	runErr := cmd.Run()

	// A cancellation or deadline on the caller's own context is the
	// caller's story (sweep-level SIGINT or budget) and must not be
	// misreported as a per-trial timeout; only a deadline this executor
	// added itself is the worker timing out.
	if err := parent.Err(); err != nil {
		return Result{}, err
	}
	if e.Timeout > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return Result{}, fmt.Errorf("harness: worker timed out after %v", e.Timeout)
	}

	// Decode the envelope even when the child exited nonzero: a worker that
	// failed cleanly (bad spec, meter error) reports through the envelope
	// with a nonzero exit, and the structured message beats an exit status.
	env, err := decodeWorkerEnvelope(stdout.Bytes())
	switch {
	case errors.Is(err, errMalformedEnvelope) && runErr != nil:
		return Result{}, fmt.Errorf("harness: worker crashed: %v%s", runErr, stderr.Suffix())
	case err != nil:
		return Result{}, fmt.Errorf("%w%s", err, stderr.Suffix())
	case env.Error != "":
		return Result{}, fmt.Errorf("harness: worker: %s", env.Error)
	}
	return *env.Result, nil
}

// errMalformedEnvelope marks worker output that is not one JSON envelope.
var errMalformedEnvelope = errors.New("harness: worker wrote malformed envelope")

// decodeWorkerEnvelope reads a worker child's whole stdout as one
// WorkerEnvelope. It returns the envelope only when it is one this build
// reads: a protocol no newer than WorkerProtocolVersion, carrying exactly
// one of a result and an error.
func decodeWorkerEnvelope(out []byte) (WorkerEnvelope, error) {
	var env WorkerEnvelope
	if err := json.Unmarshal(out, &env); err != nil {
		return env, fmt.Errorf("%w: %v", errMalformedEnvelope, err)
	}
	switch {
	case env.V > WorkerProtocolVersion:
		return env, fmt.Errorf("harness: worker speaks protocol v%d, this build reads up to v%d (version-skewed binary?)",
			env.V, WorkerProtocolVersion)
	case env.Result == nil && env.Error == "":
		return env, errors.New("harness: worker envelope has neither result nor error")
	case env.Result != nil && env.Error != "":
		return env, fmt.Errorf("harness: worker envelope has both a result and an error (%s)", env.Error)
	}
	return env, nil
}

// TailBuffer keeps the last 2 KiB written to it: a child's stderr, held
// bounded however much the child writes, for quoting in error messages.
type TailBuffer struct {
	mu  sync.Mutex
	buf []byte
	cut bool
}

const tailLimit = 2048

func (b *TailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > tailLimit {
		b.buf = append(b.buf[:0], b.buf[len(b.buf)-tailLimit:]...)
		b.cut = true
	}
	return len(p), nil
}

// Suffix renders the tail as an error-message suffix; empty when nothing
// but whitespace was written.
func (b *TailBuffer) Suffix() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := strings.TrimSpace(string(b.buf))
	if s == "" {
		return ""
	}
	if b.cut {
		s = "…" + s
	}
	return " (stderr: " + s + ")"
}
