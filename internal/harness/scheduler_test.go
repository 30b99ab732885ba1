package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"energybench/internal/bench"
)

// fakeGroups simulates a 4-core/8-CPU SMT machine for scheduler tests.
func fakeGroups() [][]int {
	return [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}
}

// recordingExecutor is a fake Executor that tracks, under its own lock, how
// many in-flight trials hold each CPU (read from the assignment the
// scheduler stamped into Trial.CPUs) and how many run concurrently overall.
// Run under -race it doubles as a memory-model check on the scheduler's
// lease table and fan-in.
type recordingExecutor struct {
	hold time.Duration
	fail func(t Trial) error

	mu          sync.Mutex
	perCPU      map[int]int
	active      int
	maxActive   int
	overlapped  bool
	partialPair bool
	pinnedRuns  [][]int // every pinned trial's assignment, in start order
}

func newRecordingExecutor(hold time.Duration) *recordingExecutor {
	return &recordingExecutor{hold: hold, perCPU: map[int]int{}}
}

func (e *recordingExecutor) Execute(ctx context.Context, t Trial) (Result, error) {
	cpus := UniqueCPUs(t.CPUs)
	e.mu.Lock()
	e.active++
	if e.active > e.maxActive {
		e.maxActive = e.active
	}
	if t.CPUs != nil {
		e.pinnedRuns = append(e.pinnedRuns, append([]int(nil), t.CPUs...))
	}
	for _, c := range cpus {
		e.perCPU[c]++
		if e.perCPU[c] > 1 {
			e.overlapped = true
		}
	}
	// For a co-run trial the whole interleaved set must appear at once: if
	// any of its CPUs is held without the others, the lease wasn't atomic.
	if t.IsCoRun() {
		for _, c := range cpus {
			if e.perCPU[c] != 1 {
				e.partialPair = true
			}
		}
	}
	e.mu.Unlock()

	time.Sleep(e.hold)

	e.mu.Lock()
	for _, c := range cpus {
		e.perCPU[c]--
	}
	e.active--
	e.mu.Unlock()

	if e.fail != nil {
		if err := e.fail(t); err != nil {
			return Result{}, err
		}
	}
	res := Result{Spec: t.Spec.Name, Threads: t.Threads, Placement: t.Placement, Iters: t.Iters, Meter: "fake"}
	if t.SpecB != nil {
		res.SpecB = t.SpecB.Name
		res.ThreadsB = t.Threads
		res.ItersB = t.ItersB
	}
	return res, nil
}

func schedTrial(seq int, name string, threads int, p Placement) Trial {
	return Trial{
		Seq: seq, Spec: bench.Spec{Name: name}, Threads: threads,
		Placement: p, Iters: 100, MinReps: 1, MaxReps: 1,
	}
}

func schedCoRunTrial(seq int, a, b string, threads int, p Placement) Trial {
	t := schedTrial(seq, a, threads, p)
	specB := bench.Spec{Name: b}
	t.SpecB = &specB
	t.ItersB = 100
	return t
}

// TestSchedulerNeverOverlapsLeasedCPUs is the lease-table stress test: many
// pinned trials competing for a small fake topology, high parallelism, run
// under -race. No two in-flight trials may hold the same CPU, yet pinned
// trials must genuinely overlap in time (the allocator re-walks the
// placement over free cores instead of always starting from CPU 0).
func TestSchedulerNeverOverlapsLeasedCPUs(t *testing.T) {
	var trials []Trial
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0:
			trials = append(trials, schedTrial(i, fmt.Sprintf("compact-%d", i), 2, PlaceCompact))
		case 1:
			trials = append(trials, schedTrial(i, fmt.Sprintf("scatter-%d", i), 2, PlaceScatter))
		case 2:
			trials = append(trials, schedTrial(i, fmt.Sprintf("compact-wide-%d", i), 4, PlaceCompact))
		case 3:
			trials = append(trials, schedTrial(i, fmt.Sprintf("none-%d", i), 1, PlaceNone))
		}
	}
	exec := newRecordingExecutor(time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 8, groups: fakeGroups()}
	var c Collector
	if err := s.RunPlan(context.Background(), trials, &c); err != nil {
		t.Fatal(err)
	}
	if exec.overlapped {
		t.Error("two concurrent trials held the same CPU: the lease table failed")
	}
	if len(c.Results) != len(trials) {
		t.Errorf("sink saw %d results, want %d", len(c.Results), len(trials))
	}
	if exec.maxActive < 2 {
		t.Errorf("max concurrency %d; the scheduler never actually overlapped trials", exec.maxActive)
	}
	if exec.maxActive > 8 {
		t.Errorf("max concurrency %d exceeds Parallel=8", exec.maxActive)
	}
}

// TestSchedulerParallelizesPinnedTrials pins down the allocator's whole
// point: two compact 2-thread trials fit on different cores of the 4-core
// fake machine, so they must at some point run at the same time — and on
// disjoint CPU sets.
func TestSchedulerParallelizesPinnedTrials(t *testing.T) {
	var trials []Trial
	for i := 0; i < 12; i++ {
		trials = append(trials, schedTrial(i, fmt.Sprintf("compact-%d", i), 2, PlaceCompact))
	}
	exec := newRecordingExecutor(2 * time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 4, groups: fakeGroups()}
	if err := s.RunPlan(context.Background(), trials, nil); err != nil {
		t.Fatal(err)
	}
	if exec.overlapped {
		t.Error("concurrent pinned trials shared a CPU")
	}
	if exec.maxActive < 2 {
		t.Errorf("max concurrency %d: pinned trials never ran in parallel — allocation is still serializing on a shared first CPU", exec.maxActive)
	}
	// Every compact 2-thread assignment must be one core's SMT sibling
	// pair, whichever core was free — placement semantics survive
	// concurrent allocation.
	for _, cpus := range exec.pinnedRuns {
		if len(cpus) != 2 || cpus[0]/2 != cpus[1]/2 {
			t.Errorf("compact trial ran on %v, want both SMT siblings of one core", cpus)
		}
	}
}

// TestSchedulerCoRunLeasesAtomically verifies a co-run pair's interleaved
// A/B CPU set is acquired in one atomic step: solo trials hammering the
// same cores never observe a half-leased pair.
func TestSchedulerCoRunLeasesAtomically(t *testing.T) {
	var trials []Trial
	for i := 0; i < 30; i++ {
		if i%3 == 0 {
			// 2 threads of each spec → compact needs two full cores.
			trials = append(trials, schedCoRunTrial(i, "a", "b", 2, PlaceCompact))
		} else {
			trials = append(trials, schedTrial(i, fmt.Sprintf("solo-%d", i), 2, PlaceCompact))
		}
	}
	exec := newRecordingExecutor(time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 6, groups: fakeGroups()}
	if err := s.RunPlan(context.Background(), trials, nil); err != nil {
		t.Fatal(err)
	}
	if exec.overlapped {
		t.Error("co-run CPUs overlapped with another trial")
	}
	if exec.partialPair {
		t.Error("a co-run trial observed its own pair half-leased: acquisition was not atomic")
	}
}

// TestSchedulerOversubscribedTrialFailsFast: a pinned trial wanting more
// threads than the machine has CPUs can never be allocated from the lease
// table; it must be rejected as a *TrialError before dispatch while the
// rest of the sweep proceeds (a co-run pair counts both specs' threads).
func TestSchedulerOversubscribedTrialFailsFast(t *testing.T) {
	trials := []Trial{
		schedTrial(0, "wide", 16, PlaceCompact),           // 16 units on 8 CPUs
		schedCoRunTrial(1, "a", "b", 5, PlaceScatter),     // 10 interleaved units on 8 CPUs
		schedTrial(2, "narrow", 1, PlaceScatter),          // fits
		schedTrial(3, "unpinned-wide", 16, PlaceNone),     // unpinned: leases nothing, runs
		schedTrial(4, "exactly-machine", 8, PlaceCompact), // fits exactly
	}
	exec := newRecordingExecutor(time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 4, groups: fakeGroups()}
	var c Collector
	err := s.RunPlan(context.Background(), trials, &c)
	if err == nil {
		t.Fatal("want *TrialError for the oversubscribed trials")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not unwrap to a *TrialError", err)
	}
	if !strings.Contains(err.Error(), "wide") || !strings.Contains(err.Error(), "never be scheduled") {
		t.Errorf("error %q should name the unschedulable trial and say why", err)
	}
	// Both pinned oversized trials are rejected, nothing else.
	rejected := map[string]bool{}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			var t2 *TrialError
			if errors.As(e, &t2) {
				rejected[t2.Trial.Spec.Name] = true
			}
		}
	} else {
		var t2 *TrialError
		if errors.As(err, &t2) {
			rejected[t2.Trial.Spec.Name] = true
		}
	}
	if len(rejected) != 2 || !rejected["wide"] || !rejected["a"] {
		t.Errorf("rejected trials = %v, want exactly wide and the a+b co-run", rejected)
	}
	if len(c.Results) != 3 {
		t.Fatalf("sink saw %d results, want 3 — the runnable trials must still sweep", len(c.Results))
	}
	if exec.overlapped {
		t.Error("concurrent trials shared CPUs")
	}
}

// TestSchedulerContinuesPastCrashingTrial is the durability half of the
// tentpole: a subprocess worker killed mid-trial must surface as a
// *TrialError for that trial only, with every other trial measured and in
// the sink.
func TestSchedulerContinuesPastCrashingTrial(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Skip("no /bin/sh")
	}
	sub := &Subprocess{
		Binary: "/bin/sh",
		// The worker SIGKILLs itself when the serialized trial names the
		// crashing spec — a faithful stand-in for `kill -9` of one child.
		Args: []string{"-c", `in=$(cat); case "$in" in *crash-me*) kill -9 $$;; esac; echo '{"v":1,"result":{"spec":"ok","meter":"fake"}}'`},
	}
	trials := []Trial{
		schedTrial(0, "fine-1", 1, PlaceNone),
		schedTrial(1, "crash-me", 1, PlaceNone),
		schedTrial(2, "fine-2", 1, PlaceNone),
		schedTrial(3, "fine-3", 1, PlaceNone),
	}
	var c Collector
	s := &Scheduler{Executor: sub, Parallel: 2}
	err := s.RunPlan(context.Background(), trials, &c)
	if err == nil {
		t.Fatal("want an error reporting the crashed trial")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not unwrap to a *TrialError", err)
	}
	if te.Trial.Spec.Name != "crash-me" {
		t.Errorf("TrialError names trial %q, want crash-me", te.Trial.Spec.Name)
	}
	if !strings.Contains(err.Error(), "worker crashed") {
		t.Errorf("error %q should identify the worker crash", err)
	}
	if len(c.Results) != 3 {
		t.Errorf("sink saw %d results, want 3 — exactly the crashed trial lost", len(c.Results))
	}
}

// TestSchedulerFakeExecutorErrorsDontStopSweep checks the same per-trial
// error tolerance without processes, so it runs everywhere (and under -race
// exercises the error fan-in).
func TestSchedulerFakeExecutorErrorsDontStopSweep(t *testing.T) {
	var trials []Trial
	for i := 0; i < 12; i++ {
		trials = append(trials, schedTrial(i, fmt.Sprintf("s%d", i), 1, PlaceNone))
	}
	exec := newRecordingExecutor(0)
	exec.fail = func(tr Trial) error {
		if tr.Seq%4 == 1 {
			return fmt.Errorf("injected failure for %s", tr.Spec.Name)
		}
		return nil
	}
	var c Collector
	s := &Scheduler{Executor: exec, Parallel: 4, groups: fakeGroups()}
	err := s.RunPlan(context.Background(), trials, &c)
	if err == nil {
		t.Fatal("want joined trial errors")
	}
	if len(c.Results) != 9 {
		t.Errorf("sink saw %d results, want 9 (12 trials, 3 injected failures)", len(c.Results))
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Errorf("error should carry *TrialError values, got %v", err)
	}
}

func TestSchedulerSerialWhenParallelOne(t *testing.T) {
	trials := []Trial{
		schedTrial(0, "a", 1, PlaceNone),
		schedTrial(1, "b", 1, PlaceNone),
		schedTrial(2, "c", 1, PlaceNone),
	}
	exec := newRecordingExecutor(time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 1, groups: fakeGroups()}
	if err := s.RunPlan(context.Background(), trials, nil); err != nil {
		t.Fatal(err)
	}
	if exec.maxActive != 1 {
		t.Errorf("max concurrency %d with Parallel=1, want strictly serial", exec.maxActive)
	}
}

func TestSchedulerHonorsCancellation(t *testing.T) {
	var trials []Trial
	for i := 0; i < 50; i++ {
		trials = append(trials, schedTrial(i, fmt.Sprintf("s%d", i), 1, PlaceNone))
	}
	exec := newRecordingExecutor(5 * time.Millisecond)
	s := &Scheduler{Executor: exec, Parallel: 2, groups: fakeGroups()}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(12 * time.Millisecond)
		cancel()
	}()
	var c Collector
	err := s.RunPlan(ctx, trials, &c)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(c.Results) == len(trials) {
		t.Error("cancellation should have stopped the sweep early")
	}
	// A sweep-level interrupt is the user's doing, not N trial failures.
	var te *TrialError
	if errors.As(err, &te) {
		t.Errorf("cancellation was misreported as a per-trial failure: %v", err)
	}
}

func TestSchedulerSinkErrorStopsDispatch(t *testing.T) {
	var trials []Trial
	for i := 0; i < 20; i++ {
		trials = append(trials, schedTrial(i, fmt.Sprintf("s%d", i), 1, PlaceNone))
	}
	exec := newRecordingExecutor(0)
	s := &Scheduler{Executor: exec, Parallel: 2, groups: fakeGroups()}
	consumed := 0
	sink := SinkFunc(func(Result) error {
		consumed++
		if consumed >= 3 {
			return fmt.Errorf("disk full")
		}
		return nil
	})
	err := s.RunPlan(context.Background(), trials, sink)
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the sink error", err)
	}
	if consumed >= 20 {
		t.Errorf("sink consumed %d results after failing; dispatch should stop", consumed)
	}
}

func TestSchedulerRequiresExecutor(t *testing.T) {
	s := &Scheduler{}
	if err := s.RunPlan(context.Background(), nil, nil); err == nil {
		t.Error("want an error when no executor is configured")
	}
}
