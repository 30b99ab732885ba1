package extwork

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"energybench/internal/bench"
	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// needCmd skips the test when a helper binary (sh, sleep) is not on PATH —
// the failure-path tests drive real child processes.
func needCmd(t *testing.T, name string) {
	t.Helper()
	if _, err := exec.LookPath(name); err != nil {
		t.Skipf("%s not available: %v", name, err)
	}
}

// externTrial builds a minimal one-rep external-workload trial. The spec
// name doubles as the workload name, exactly as a campaign plans it.
func externTrial(name string, argv []string) harness.Trial {
	return harness.Trial{
		Spec:      bench.Spec{Name: name, Iters: 1},
		Threads:   1,
		Placement: harness.PlaceNone,
		Iters:     1,
		MinReps:   1,
		MaxReps:   1,
		Extern: &harness.ExternSpec{
			Workload: name,
			Exec:     argv,
		},
	}
}

func testExecutor() *ExternExecutor {
	return &ExternExecutor{Meter: meter.NewMock(30)}
}

// stubExecutor is a kernel-trial fallback that records invocations and
// returns a canned result.
type stubExecutor struct {
	mu    sync.Mutex
	calls int
}

func (s *stubExecutor) Execute(_ context.Context, t harness.Trial) (harness.Result, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return harness.Result{
		Spec: t.Spec.Name, Threads: t.Threads, Iters: t.Iters,
		Placement: t.Placement, Meter: "stub",
	}, nil
}

func TestExecuteDelegatesKernelTrialsToFallback(t *testing.T) {
	kernel := harness.Trial{Spec: bench.Spec{Name: "int-alu"}, Threads: 1, Iters: 10,
		Placement: harness.PlaceNone, MinReps: 1, MaxReps: 1}

	stub := &stubExecutor{}
	e := &ExternExecutor{Meter: meter.NewMock(30), Fallback: stub}
	res, err := e.Execute(context.Background(), kernel)
	if err != nil {
		t.Fatalf("kernel trial through fallback: %v", err)
	}
	if res.Meter != "stub" || stub.calls != 1 {
		t.Errorf("fallback not used: res.Meter=%q calls=%d", res.Meter, stub.calls)
	}

	// Without a fallback a kernel trial is a structured refusal, not a panic.
	if _, err := testExecutor().Execute(context.Background(), kernel); err == nil ||
		!strings.Contains(err.Error(), "no fallback executor") {
		t.Errorf("kernel trial without fallback: err = %v", err)
	}
}

func TestExecuteRejectsInvalidSpecAndMissingMeter(t *testing.T) {
	bad := externTrial("bad|name", []string{"true"})
	if _, err := testExecutor().Execute(context.Background(), bad); err == nil ||
		!strings.Contains(err.Error(), "may not contain") {
		t.Errorf("invalid workload name: err = %v", err)
	}

	e := &ExternExecutor{} // no meter
	if _, err := e.Execute(context.Background(), externTrial("w", []string{"true"})); err == nil ||
		!strings.Contains(err.Error(), "no energy meter") {
		t.Errorf("meterless executor: err = %v", err)
	}

	norep := externTrial("w", []string{"true"})
	norep.MinReps, norep.MaxReps = 0, 0
	if _, err := testExecutor().Execute(context.Background(), norep); err == nil ||
		!strings.Contains(err.Error(), "min reps must be positive, got 0") {
		t.Errorf("trial with no repetitions: err = %v", err)
	}
}

func TestExecuteMissingBinary(t *testing.T) {
	tr := externTrial("ghost", []string{filepath.Join(t.TempDir(), "no-such-binary")})
	_, err := testExecutor().Execute(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), `launching workload "ghost"`) {
		t.Errorf("missing binary: err = %v", err)
	}
}

func TestExecuteExitStatus(t *testing.T) {
	needCmd(t, "sh")

	// Unexpected exit status fails the trial with the status and the
	// child's stderr tail in the message.
	tr := externTrial("crasher", []string{"sh", "-c", "echo boom >&2; exit 3"})
	_, err := testExecutor().Execute(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), "exited with status 3, want 0") {
		t.Fatalf("unexpected exit: err = %v", err)
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("stderr tail missing from error: %v", err)
	}

	// The same child succeeds when the campaign declares that status.
	tr.Extern.ExpectExit = 3
	res, err := testExecutor().Execute(context.Background(), tr)
	if err != nil {
		t.Fatalf("expected exit status 3: %v", err)
	}
	if len(res.Samples) != 1 || res.Workload != "crasher" {
		t.Errorf("result = %d samples, workload %q", len(res.Samples), res.Workload)
	}
}

func TestExecuteBuildFailureCachedAcrossTrials(t *testing.T) {
	needCmd(t, "sh")
	dir := t.TempDir()
	tr := externTrial("unbuildable", []string{"true"})
	tr.Extern.Dir = dir
	tr.Extern.Build = []string{"sh", "-c", "echo attempt >> build.log; echo no compiler >&2; exit 1"}

	e := testExecutor()
	for i := 0; i < 2; i++ {
		_, err := e.Execute(context.Background(), tr)
		if err == nil || !strings.Contains(err.Error(), `building workload "unbuildable"`) {
			t.Fatalf("trial %d: err = %v", i, err)
		}
		if !strings.Contains(err.Error(), "no compiler") {
			t.Errorf("trial %d: build output missing from error: %v", i, err)
		}
	}
	// The broken build ran once; its cached failure served the second trial.
	log, err := os.ReadFile(filepath.Join(dir, "build.log"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(log), "attempt"); got != 1 {
		t.Errorf("build step ran %d times, want 1 (cached failure)", got)
	}
}

func TestExecuteTimeoutKillsChild(t *testing.T) {
	needCmd(t, "sleep")
	tr := externTrial("sleeper", []string{"sleep", "30"})
	tr.Extern.Timeout = 100 * time.Millisecond

	start := time.Now()
	_, err := testExecutor().Execute(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), "timed out after 100ms") {
		t.Fatalf("timeout: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("timed-out trial took %v; the child was not killed promptly", elapsed)
	}
}

func TestExecuteCounterFailures(t *testing.T) {
	needCmd(t, "sh")
	spec, err := perf.Spec{Backend: perf.BackendMock, Events: []string{"instructions"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	tr := externTrial("counted", []string{"sh", "-c", "exit 0"})
	tr.Counters = &spec

	// Backend construction failure surfaces before any child is launched.
	e := testExecutor()
	e.newActivity = func(perf.Spec) (perf.ActivityMeter, error) {
		return nil, fmt.Errorf("planted backend failure")
	}
	if _, err := e.Execute(context.Background(), tr); err == nil ||
		!strings.Contains(err.Error(), "activity meter") ||
		!strings.Contains(err.Error(), "planted backend failure") {
		t.Errorf("backend failure: err = %v", err)
	}

	// A session that cannot open on the frozen child fails the trial,
	// which kills and reaps the child.
	e = testExecutor()
	e.newActivity = func(perf.Spec) (perf.ActivityMeter, error) {
		return &scriptedTasks{err: fmt.Errorf("planted open failure")}, nil
	}
	if _, err := e.Execute(context.Background(), tr); err == nil ||
		!strings.Contains(err.Error(), `attaching counters to workload "counted"`) ||
		!strings.Contains(err.Error(), "planted open failure") {
		t.Errorf("open failure: err = %v", err)
	}
}

// TestExecuteSuccessMetersChildAndCounters is the happy path end to end:
// ${THREADS} expands into the child's environment, the load-aware mock
// meter draws the planted model for the workload's declared mix, the
// attached mock counter sessions recover the planted instruction rate, and
// the sampler polls the meter and those sessions while the child runs.
func TestExecuteSuccessMetersChildAndCounters(t *testing.T) {
	needCmd(t, "sh")
	needCmd(t, "sleep")
	m := meter.NewMock(30)
	m.ModelW = map[string]float64{"int-alu": 5}
	spec, err := perf.Spec{Backend: perf.BackendMock, Events: []string{"instructions", "llc-misses"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// The child verifies the env expansion itself: a wrong $T exits 9 and
	// fails the trial.
	tr := externTrial("stress", []string{"sh", "-c", `test "$T" = 2 || exit 9; sleep 0.2`})
	tr.Threads = 2
	tr.MinReps, tr.MaxReps = 2, 2
	tr.Counters = &spec
	tr.SampleInterval = 20 * time.Millisecond
	tr.Extern.Env = map[string]string{"T": "${THREADS}"}
	tr.Extern.Components = map[bench.Component]float64{"int-alu": 1}

	e := &ExternExecutor{Meter: m}
	res, err := e.Execute(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "stress" || len(res.Samples) != 2 {
		t.Fatalf("result: workload %q, %d samples", res.Workload, len(res.Samples))
	}
	// Planted model: 30 W static + 5 W/thread × 2 int-alu threads.
	if want := 40.0; math.Abs(res.PowerW.Mean-want)/want > 0.01 {
		t.Errorf("PowerW = %.3f, want ~%.0f from the planted model", res.PowerW.Mean, want)
	}
	for i, smp := range res.Samples {
		if smp.Series == nil || len(smp.Series.Points) == 0 || len(smp.Series.Events) != 2 {
			t.Fatalf("sample %d: series %+v, want points over both counted events", i, smp.Series)
		}
		if pt := smp.Series.Points[0]; len(pt.Counts) != 2 {
			t.Errorf("sample %d: first point counts %v, want one per event", i, pt.Counts)
		}
	}
	if !strings.HasSuffix(harness.ResultKey(res), "|w:stress") {
		t.Errorf("key %q lacks the workload dimension", harness.ResultKey(res))
	}
	if res.Counters == nil {
		t.Fatal("no counters on the result")
	}
	rate, ok := res.Counters.TotalRateHz("instructions", 0)
	if want := perf.MockRate("int-alu", "instructions"); !ok ||
		math.Abs(rate-want)/want > 0.2 {
		t.Errorf("instructions rate = %.3g (ok=%v), want ~%.3g from the mock table", rate, ok, want)
	}
}

// scriptedEnergy is a meter whose repetition r draws uJ[r] microjoules:
// Measure reads it once before and once after every repetition.
type scriptedEnergy struct {
	reads int
	total uint64
	uJ    []uint64
}

func (m *scriptedEnergy) Name() string            { return "scripted" }
func (m *scriptedEnergy) Domains() []meter.Domain { return []meter.Domain{{Name: "scripted-0"}} }
func (m *scriptedEnergy) Read() (meter.Reading, error) {
	if m.reads%2 == 1 {
		m.total += m.uJ[m.reads/2]
	}
	m.reads++
	return meter.Reading{Counters: []uint64{m.total}}, nil
}

// scriptedTasks is an ActivityMeter whose k-th opened task session reads
// counts(k) at its Stop; with err set, no task session opens.
type scriptedTasks struct {
	opened int
	counts func(session int) perf.Counts
	err    error
}

func (*scriptedTasks) Name() string     { return "scripted" }
func (*scriptedTasks) Events() []string { return []string{"instructions", "llc-misses"} }
func (*scriptedTasks) OpenThread(int, string) (perf.Session, error) {
	return nil, fmt.Errorf("unused")
}
func (m *scriptedTasks) OpenTask(int, int, string) (perf.Session, error) {
	if m.err != nil {
		return nil, m.err
	}
	m.opened++
	return &scriptedTaskSession{counts: m.counts(m.opened - 1)}, nil
}

type scriptedTaskSession struct{ counts perf.Counts }

func (s *scriptedTaskSession) Start() error               { return nil }
func (s *scriptedTaskSession) Stop() (perf.Counts, error) { return s.counts, nil }
func (s *scriptedTaskSession) Poll() (perf.Counts, error) { return s.counts, nil }
func (s *scriptedTaskSession) Close() error               { return nil }

// TestExternCountersCoverKeptReps: an external child's counters cover the
// repetitions Measure kept. The child is one thread (CPU -1) counted by one
// task session per repetition, whose rates divide its counts by the
// sample's wall time, not by the session's inherited enabled times.
// Energies 1, 1 and 5 J drop the third repetition, whose counts dwarf the
// others'; an event multiplexed in a kept repetition is marked multiplexed.
func TestExternCountersCoverKeptReps(t *testing.T) {
	needCmd(t, "sh")
	scaled := func(rep, event int) float64 {
		if rep == 2 {
			return 5e9
		}
		return float64((rep+1)*(event+1)) * 1e6
	}
	activity := &scriptedTasks{counts: func(rep int) perf.Counts {
		var c perf.Counts
		for i := range 2 {
			v := perf.EventCount{Scaled: scaled(rep, i), TimeEnabledNS: 7e6, TimeRunningNS: 7e6}
			if rep == 0 && i == 1 {
				v.TimeRunningNS = 3e6
			}
			c.Values = append(c.Values, v)
		}
		return c
	}}
	e := &ExternExecutor{
		Meter:       &scriptedEnergy{uJ: []uint64{1e6, 1e6, 5e6}},
		newActivity: func(perf.Spec) (perf.ActivityMeter, error) { return activity, nil },
	}
	tr := externTrial("counted", []string{"sh", "-c", "exit 0"})
	tr.MinReps, tr.MaxReps, tr.MaxCV = 3, 3, 0.2
	tr.Counters = &perf.Spec{Backend: "scripted"}
	res, err := e.Execute(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c == nil || res.EnergyJ.N != 2 || c.Reps != res.EnergyJ.N {
		t.Fatalf("energy N %d, counters %+v; want counters over the 2 kept repetitions", res.EnergyJ.N, c)
	}
	if activity.opened != 3 {
		t.Errorf("opened %d task sessions, want one per repetition", activity.opened)
	}
	if len(c.Threads) != 1 || c.Threads[0].CPU != -1 {
		t.Fatalf("threads %+v, want the child as one thread on CPU -1", c.Threads)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	for i, ev := range c.Events {
		var total, rate float64
		for rep := range 2 {
			total += scaled(rep, i) / 2
			rate += scaled(rep, i) / res.Samples[rep].TimeS / 2
		}
		th := c.Threads[0]
		if !near(ev.TotalMean, total) || !near(th.TotalMean[i], total) || !near(ev.RateHzMean, rate) || !near(th.RateHzMean[i], rate) {
			t.Errorf("%s: totals %v, %v, rates %v, %v; want %v, %v", ev.Event, ev.TotalMean, th.TotalMean[i], ev.RateHzMean, th.RateHzMean[i], total, rate)
		}
		if want := i == 1; ev.Multiplexed != want {
			t.Errorf("%s: multiplexed %v, want %v", ev.Event, ev.Multiplexed, want)
		}
	}
}

// TestSchedulerExternFailuresDoNotWedge runs a mixed plan through the
// parallel Scheduler with a failing extern trial first: the failure must
// surface as one *TrialError while every later trial — extern and kernel —
// still executes, proving a crashed workload never wedges the sweep or its
// CPU leases.
func TestSchedulerExternFailuresDoNotWedge(t *testing.T) {
	needCmd(t, "sh")
	stub := &stubExecutor{}
	e := &ExternExecutor{Meter: meter.NewMock(30), Fallback: stub}

	bad := externTrial("ghost", []string{filepath.Join(t.TempDir(), "missing")})
	good := externTrial("ok", []string{"sh", "-c", "exit 0"})
	kernel := harness.Trial{Spec: bench.Spec{Name: "int-alu"}, Threads: 1, Iters: 10,
		Placement: harness.PlaceNone, MinReps: 1, MaxReps: 1}
	trials := []harness.Trial{bad, good, kernel}
	for i := range trials {
		trials[i].Seq = i
	}

	var mu sync.Mutex
	var got []harness.Result
	sink := harness.SinkFunc(func(r harness.Result) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, r)
		return nil
	})
	sched := &harness.Scheduler{Executor: e, Parallel: 1}
	err := sched.RunPlan(context.Background(), trials, sink)
	if err == nil {
		t.Fatal("scheduler swallowed the extern failure")
	}
	var te *harness.TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error is not a *TrialError: %v", err)
	}
	if te.Trial.Seq != 0 || !strings.Contains(te.Err.Error(), `launching workload "ghost"`) {
		t.Errorf("wrong trial blamed: seq=%d err=%v", te.Trial.Seq, te.Err)
	}
	if len(got) != 2 || stub.calls != 1 {
		t.Fatalf("after the failure %d results / %d kernel calls, want 2/1 (sweep continued)", len(got), stub.calls)
	}
	for _, r := range got {
		if r.Spec == "ok" && r.Workload != "ok" {
			t.Errorf("extern result lost its workload: %+v", r)
		}
	}
}

func TestExpandVarsAndChildEnv(t *testing.T) {
	argv := expandArgv([]string{"bench", "-t", "${THREADS}", "--pin=${CPUS}"}, 4, []int{2, 0, 2})
	want := []string{"bench", "-t", "4", "--pin=0,2"}
	for i := range want {
		if argv[i] != want[i] {
			t.Errorf("argv[%d] = %q, want %q", i, argv[i], want[i])
		}
	}

	env := childEnv(map[string]string{"B_THREADS": "${THREADS}", "A_CPUS": "${CPUS}"}, 2, nil)
	if len(env) < 2 {
		t.Fatalf("childEnv too short: %d entries", len(env))
	}
	// Workload variables append after the inherited environment in sorted
	// key order, with ${CPUS} empty for an unpinned trial.
	tail := env[len(env)-2:]
	if tail[0] != "A_CPUS=" || tail[1] != "B_THREADS=2" {
		t.Errorf("env tail = %v, want [A_CPUS= B_THREADS=2]", tail)
	}
}
