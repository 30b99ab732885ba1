package extwork

import (
	"context"
	"errors"
	"fmt"
	"io"
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

	// Test seams; nil means the platform implementation.
	newActivity func(perf.Spec) (perf.ActivityMeter, error)
	stopProc    func(pid int) error
	contProc    func(pid int) error
	tasks       func(pid int) ([]int, error)
	affinity    func(pid int, cpus []int) error

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

func (e *ExternExecutor) stop(pid int) error {
	if e.stopProc != nil {
		return e.stopProc(pid)
	}
	return stopProcess(pid)
}

func (e *ExternExecutor) cont(pid int) error {
	if e.contProc != nil {
		return e.contProc(pid)
	}
	return contProcess(pid)
}

func (e *ExternExecutor) taskList(pid int) ([]int, error) {
	if e.tasks != nil {
		return e.tasks(pid)
	}
	return listTasks(pid)
}

func (e *ExternExecutor) setAffinity(pid int, cpus []int) error {
	if e.affinity != nil {
		return e.affinity(pid, cpus)
	}
	return harness.SetAffinity(pid, cpus)
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
	var repCounts [][]perf.Counts
	res, err := harness.Measure(ctx, e.Meter, t, func() (harness.Region, error) {
		return e.launch(ctx, t, cpus, activity, &repCounts)
	})
	if err != nil {
		return res, err
	}
	if activity != nil {
		res.Counters = buildExternCounters(activity.Name(), activity.Events(), repCounts, res.Samples)
	}
	return res, nil
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

// launch prepares one repetition's region: the child started frozen
// (SIGSTOP before the shell-less child leaves the exec stub), pinned, and
// with its counters attached and started. Releasing the region resumes the
// child (SIGCONT), waits for it to exit, stops its counters, and classifies
// its fate; the core's meter reads bracket exactly that. A measured
// repetition's per-session counts are appended to repCounts.
func (e *ExternExecutor) launch(ctx context.Context, t harness.Trial, cpus []int, activity perf.ActivityMeter, repCounts *[][]perf.Counts) (harness.Region, error) {
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
	// A child that ignores the kill (stopped, or reparenting games) must
	// not wedge the sweep: Wait gives up on its pipes after this delay.
	cmd.WaitDelay = 3 * time.Second
	if err := cmd.Start(); err != nil {
		cancel()
		return harness.Region{}, fmt.Errorf("extwork: launching workload %q: %w", spec.Workload, err)
	}
	pid := cmd.Process.Pid
	var sessions []perf.Session
	// abort tears down a half-launched or unreleased child.
	abort := func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		for _, s := range sessions {
			s.Close()
		}
		cancel()
	}
	fail := func(err error) (harness.Region, error) {
		abort()
		return harness.Region{}, err
	}
	if err := e.stop(pid); err != nil {
		return fail(fmt.Errorf("extwork: freezing workload %q: %w", spec.Workload, err))
	}
	if len(cpus) > 0 {
		if err := e.setAffinity(pid, harness.UniqueCPUs(cpus)); err != nil {
			return fail(fmt.Errorf("extwork: pinning workload %q to CPUs %v: %w", spec.Workload, harness.UniqueCPUs(cpus), err))
		}
	}
	r := harness.Region{Abort: abort}
	var counts []perf.Counts
	if activity != nil {
		ss, err := e.attach(activity, pid, spec)
		if err != nil {
			return fail(fmt.Errorf("extwork: attaching counters to workload %q: %w", spec.Workload, err))
		}
		sessions = ss
		for _, s := range sessions {
			if err := s.Start(); err != nil {
				return fail(fmt.Errorf("extwork: starting counters for workload %q: %w", spec.Workload, err))
			}
		}
		r.Sessions, r.Events = sessions, activity.Events()
		r.Measured = func(*harness.Sample) { *repCounts = append(*repCounts, counts) }
	}
	r.Release = func() error {
		if err := e.cont(pid); err != nil {
			abort()
			return fmt.Errorf("extwork: resuming workload %q: %w", spec.Workload, err)
		}
		defer cancel()
		werr := cmd.Wait()
		var ctrErr error
		for _, s := range sessions {
			if c, err := s.Stop(); err != nil {
				if ctrErr == nil {
					ctrErr = err
				}
			} else {
				counts = append(counts, c)
			}
			s.Close()
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

// attach opens counter sessions on the frozen child. The preferred shape is
// one session per existing task (TID) — with the inherit bit, threads the
// child spawns after resume are counted by their spawning task's session —
// falling back to a single process-wide session when any per-task open
// fails, and erroring only when even that is impossible.
func (e *ExternExecutor) attach(activity perf.ActivityMeter, pid int, spec *harness.ExternSpec) ([]perf.Session, error) {
	tm, ok := activity.(perf.TaskMeter)
	if !ok {
		return nil, fmt.Errorf("counter backend %q cannot attach to another process", activity.Name())
	}
	hint := dominantComponent(spec)
	tids, err := e.taskList(pid)
	if err != nil || len(tids) == 0 {
		tids = []int{pid}
	}
	var sessions []perf.Session
	var openErr error
	for _, tid := range tids {
		s, err := tm.OpenTask(tid, -1, hint)
		if err != nil {
			openErr = err
			break
		}
		sessions = append(sessions, s)
	}
	if openErr == nil {
		return sessions, nil
	}
	for _, s := range sessions {
		s.Close()
	}
	s, err := tm.OpenTask(pid, -1, hint)
	if err != nil {
		return nil, errors.Join(openErr, err)
	}
	return []perf.Session{s}, nil
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

// buildExternCounters folds per-repetition, per-session counts into the
// stored aggregate: one synthetic "thread" holding the child's process-wide
// totals, one repetition per measured sample. Rates divide the summed
// scaled counts by the repetition's child wall clock (the sample's TimeS) —
// not by time_enabled, which under inherited counters is the
// *sum* over the child's tasks and would understate the process-aggregate
// rate by the thread count.
func buildExternCounters(backend string, events []string, reps [][]perf.Counts, samples []harness.Sample) *harness.Counters {
	if len(reps) == 0 || len(events) == 0 {
		return nil
	}
	out := &harness.Counters{Backend: backend, Reps: len(reps)}
	out.Events = make([]harness.CounterEvent, len(events))
	for i, name := range events {
		out.Events[i].Event = name
	}
	th := harness.CounterThread{
		CPU:        -1,
		TotalMean:  make([]float64, len(events)),
		RateHzMean: make([]float64, len(events)),
	}
	n := float64(len(reps))
	for r, rep := range reps {
		for _, counts := range rep {
			for i, v := range counts.Values {
				if i >= len(events) {
					break
				}
				th.TotalMean[i] += v.Scaled / n
				if wall := samples[r].TimeS; wall > 0 {
					th.RateHzMean[i] += v.Scaled / wall / n
				}
				if v.Multiplexed() {
					out.Events[i].Multiplexed = true
				}
			}
		}
	}
	for i := range out.Events {
		out.Events[i].TotalMean = th.TotalMean[i]
		out.Events[i].RateHzMean = th.RateHzMean[i]
	}
	out.Threads = []harness.CounterThread{th}
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
