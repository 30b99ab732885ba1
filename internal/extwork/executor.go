package extwork

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// ExternExecutor runs external-workload trials: per repetition it launches
// the workload's binary as a frozen child process, and the shared
// measurement core (harness.Measure) meters and samples exactly the child's
// lifetime. Kernel trials are delegated to Fallback, so one executor serves
// a mixed campaign plan under the Scheduler unchanged.
//
// The metered section of every extern trial is serialized internally:
// energy counters are machine-global, so two concurrently metered children
// would corrupt each other's deltas (the same reason kernel trials refuse
// rapl with --parallel). Under a parallel Scheduler, kernel trials still
// run concurrently with each other and with the builds of extern trials;
// only the extern repetition loops queue.
type ExternExecutor struct {
	// Meter reads energy around each child run; required for extern trials.
	Meter meter.EnergyMeter
	// Fallback executes trials without an ExternSpec (kernel trials); nil
	// makes such trials an error.
	Fallback harness.Executor
	// Timeout bounds one repetition's child process when the trial's own
	// ExternSpec carries no timeout; 0 means unbounded.
	Timeout time.Duration
	// Log, when non-nil, receives build-step progress lines.
	Log func(format string, args ...any)

	// newActivity overrides ActivityMeter construction in tests; nil means
	// perf.NewMeter.
	newActivity func(perf.Spec) (perf.ActivityMeter, error)

	// runMu serializes the metered sections (see type comment).
	runMu sync.Mutex

	// buildMu/built make each workload's build step run once, with its
	// outcome (including failure) shared by every trial of the workload.
	buildMu sync.Mutex
	built   map[string]error
}

func (e *ExternExecutor) activityMeter(spec perf.Spec) (perf.ActivityMeter, error) {
	if e.newActivity != nil {
		return e.newActivity(spec)
	}
	return perf.NewMeter(spec)
}

// Execute runs one trial. Extern trials go through the same measurement
// core as kernel trials — Warmup discarded runs, adaptive repetitions under
// the energy-CV target up to MaxReps, sampling at the trial's
// SampleInterval — so downstream summaries, EDP, series, and convergence
// labeling behave identically.
func (e *ExternExecutor) Execute(ctx context.Context, t harness.Trial) (harness.Result, error) {
	if t.Extern == nil {
		if e.Fallback == nil {
			return harness.Result{}, fmt.Errorf("extwork: no fallback executor for kernel trial %s", t.Name())
		}
		return e.Fallback.Execute(ctx, t)
	}
	spec := t.Extern
	if err := spec.Validate(); err != nil {
		return harness.Result{}, err
	}
	if e.Meter == nil {
		return harness.Result{}, fmt.Errorf("extwork: no energy meter configured")
	}
	cpus := t.CPUs
	if cpus == nil {
		cpus = harness.CPUAssignment(t.Placement, t.Threads)
	}
	if err := e.buildOnce(ctx, spec); err != nil {
		return harness.Result{}, err
	}
	var activity perf.ActivityMeter
	if t.Counters != nil {
		am, err := e.activityMeter(*t.Counters)
		if err != nil {
			return harness.Result{}, fmt.Errorf("extwork: activity meter: %w", err)
		}
		activity = am
	}

	e.runMu.Lock()
	defer e.runMu.Unlock()
	return harness.Measure(ctx, e.Meter, t, func() (harness.Region, error) {
		return e.launch(ctx, t, cpus, activity)
	})
}

// buildOnce runs the workload's build step the first time any trial of the
// workload executes, caching the outcome — a failed build fails every trial
// of the workload with the same error instead of re-running a broken build
// per trial.
func (e *ExternExecutor) buildOnce(ctx context.Context, spec *harness.ExternSpec) error {
	if len(spec.Build) == 0 {
		return nil
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if err, ok := e.built[spec.Workload]; ok {
		return err
	}
	if e.Log != nil {
		e.Log("building workload %s: %s", spec.Workload, strings.Join(spec.Build, " "))
	}
	cmd := exec.CommandContext(ctx, spec.Build[0], spec.Build[1:]...)
	cmd.Dir = spec.Dir
	var stderr harness.TailBuffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err != nil {
		err = fmt.Errorf("extwork: building workload %q: %v%s", spec.Workload, err, stderr.Suffix())
	}
	if e.built == nil {
		e.built = map[string]error{}
	}
	e.built[spec.Workload] = err
	return err
}

// launch prepares one repetition's region: the child started frozen at its
// exec (startFrozen), pinned, and with one inherited counter session opened
// and started on it, which counts every thread and process the child goes
// on to create. Releasing the region resumes the child (SIGCONT), waits for
// it to exit, stops its counters, and classifies its fate; the core's meter
// reads bracket exactly that. A counted child is one thread (CPU -1), its
// counts those of wallClock.
func (e *ExternExecutor) launch(ctx context.Context, t harness.Trial, cpus []int, activity perf.ActivityMeter) (harness.Region, error) {
	spec := t.Extern
	timeout := spec.Timeout
	if timeout == 0 {
		timeout = e.Timeout
	}
	rctx, cancel := ctx, context.CancelFunc(func() {})
	if timeout > 0 {
		rctx, cancel = context.WithTimeout(ctx, timeout)
	}
	argv := expandArgv(spec.Exec, t.Threads, cpus)
	cmd := exec.CommandContext(rctx, argv[0], argv[1:]...)
	cmd.Dir = spec.Dir
	cmd.Env = childEnv(spec.Env, t.Threads, cpus)
	cmd.Stdout = io.Discard
	var stderr harness.TailBuffer
	cmd.Stderr = &stderr
	// A descendant that left the child's process group escapes the kill
	// and may hold the stderr pipe: Wait gives up on it after this delay.
	cmd.WaitDelay = 3 * time.Second
	var session perf.Session
	// abort tears down a half-launched or unreleased child with the same
	// kill a timeout sends.
	abort := func() {
		_ = cmd.Cancel()
		_ = cmd.Wait()
		if session != nil {
			session.Close()
		}
		cancel()
	}
	fail := func(err error) (harness.Region, error) {
		abort()
		return harness.Region{}, err
	}
	if err := startFrozen(cmd); err != nil {
		err = fmt.Errorf("extwork: launching workload %q: %w", spec.Workload, err)
		if cmd.Process != nil {
			return fail(err)
		}
		cancel()
		return harness.Region{}, err
	}
	pid := cmd.Process.Pid
	if len(cpus) > 0 {
		if err := harness.SetAffinity(pid, harness.UniqueCPUs(cpus)); err != nil {
			return fail(fmt.Errorf("extwork: pinning workload %q to CPUs %v: %w", spec.Workload, harness.UniqueCPUs(cpus), err))
		}
	}
	r := harness.Region{Abort: abort}
	var counts perf.Counts
	if activity != nil {
		s, err := activity.OpenTask(pid, -1, dominantComponent(spec))
		if err != nil {
			return fail(fmt.Errorf("extwork: attaching counters to workload %q: %w", spec.Workload, err))
		}
		session = s
		if err := s.Start(); err != nil {
			return fail(fmt.Errorf("extwork: starting counters for workload %q: %w", spec.Workload, err))
		}
		r.Sessions, r.Backend, r.Events = []perf.Session{s}, activity.Name(), activity.Events()
		r.Threads = []harness.CounterThread{{CPU: -1}}
		r.Measured = func(s *harness.Sample) []perf.Counts {
			return []perf.Counts{wallClock(counts, s.TimeS)}
		}
	}
	r.Release = func() error {
		if err := resume(pid); err != nil {
			abort()
			return fmt.Errorf("extwork: resuming workload %q: %w", spec.Workload, err)
		}
		defer cancel()
		werr := cmd.Wait()
		var ctrErr error
		if session != nil {
			counts, ctrErr = session.Stop()
			session.Close()
		}

		// Classify the child's fate. A sweep-level cancellation is reported
		// as the context's own error so the Scheduler attributes it to the
		// user's interrupt, not to the trial.
		if err := ctx.Err(); err != nil {
			return err
		}
		if timeout > 0 && rctx.Err() != nil {
			return fmt.Errorf("extwork: workload %q timed out after %v%s", spec.Workload, timeout, stderr.Suffix())
		}
		code := 0
		if werr != nil {
			var ee *exec.ExitError
			if !errors.As(werr, &ee) {
				return fmt.Errorf("extwork: workload %q: %w", spec.Workload, werr)
			}
			if code = ee.ExitCode(); code == -1 {
				return fmt.Errorf("extwork: workload %q killed: %v%s", spec.Workload, ee, stderr.Suffix())
			}
		}
		if code != spec.ExpectExit {
			return fmt.Errorf("extwork: workload %q exited with status %d, want %d%s", spec.Workload, code, spec.ExpectExit, stderr.Suffix())
		}
		if ctrErr != nil {
			return fmt.Errorf("extwork: reading workload %q counters: %w", spec.Workload, ctrErr)
		}
		return nil
	}
	return r, nil
}

// dominantComponent picks the workload's highest-weight declared component
// as the mock backend's planted-rate hint (ties break lexicographically for
// determinism); the workload name stands in when no mix is declared.
func dominantComponent(spec *harness.ExternSpec) string {
	best, bestW := "", -1.0
	for c, w := range spec.Components {
		name := string(c)
		if w > bestW || (w == bestW && name < best) {
			best, bestW = name, w
		}
	}
	if best == "" {
		return spec.Workload
	}
	return best
}

// wallClock re-times the child's counts by its wall clock: an inherited
// counter's enabled time sums over every task it counted. Running time
// keeps its share of enabled time, so a multiplexed event stays marked.
func wallClock(c perf.Counts, wallS float64) perf.Counts {
	wall := uint64(math.Round(wallS * 1e9))
	out := perf.Counts{Values: make([]perf.EventCount, len(c.Values))}
	for i, v := range c.Values {
		enabled, running := v.TimeEnabledNS, v.TimeRunningNS
		v.TimeEnabledNS, v.TimeRunningNS = wall, wall
		if running < enabled {
			hi, lo := bits.Mul64(wall, running)
			v.TimeRunningNS, _ = bits.Div64(hi, lo, enabled)
		}
		out.Values[i] = v
	}
	return out
}

// expandArgv substitutes ${THREADS}/${CPUS} in every argv element.
func expandArgv(argv []string, threads int, cpus []int) []string {
	out := make([]string, len(argv))
	for i, a := range argv {
		out[i] = expandVars(a, threads, cpus)
	}
	return out
}

// childEnv builds the child's environment: the parent's own, then the
// workload's variables in sorted order (deterministic trials), expanded.
func childEnv(env map[string]string, threads int, cpus []int) []string {
	out := os.Environ()
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, k+"="+expandVars(env[k], threads, cpus))
	}
	return out
}

func expandVars(s string, threads int, cpus []int) string {
	return strings.NewReplacer(
		"${THREADS}", strconv.Itoa(threads),
		"${CPUS}", cpuListString(cpus),
	).Replace(s)
}

// cpuListString renders the unique CPU assignment as "0,2,4"; empty when
// the trial is unpinned.
func cpuListString(cpus []int) string {
	uniq := harness.UniqueCPUs(cpus)
	parts := make([]string, len(uniq))
	for i, c := range uniq {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}
