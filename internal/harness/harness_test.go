package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
)

// tinyInt and tinyChase are non-catalog specs small enough for a test to
// run many repetitions of.
var (
	tinyInt   = bench.Spec{Name: "tiny-int", Component: bench.CompIntALU, Iters: 2000, Kernel: bench.KernelIntALU}
	tinyChase = bench.Spec{Name: "tiny-chase", Component: bench.CompL1, WorkingSet: 4096, Iters: 2000, Kernel: bench.KernelChase}
	tinySpecs = []bench.Spec{tinyInt, tinyChase}
)

// tinyTrials crosses specs with thread counts, spec major, Seq counted from
// 0: unpinned trials at each spec's own iteration count, each one warm-up
// and then three measured repetitions.
func tinyTrials(specs []bench.Spec, threads ...int) []Trial {
	var trials []Trial
	for _, s := range specs {
		for _, n := range threads {
			trials = append(trials, Trial{Seq: len(trials), Spec: s, Threads: n, Placement: PlaceNone,
				Iters: s.Iters, Warmup: 1, MinReps: 3, MaxReps: 3})
		}
	}
	return trials
}

// tinyTrial is the one tiny-int trial at the given thread count.
func tinyTrial(threads int) Trial { return tinyTrials([]bench.Spec{tinyInt}, threads)[0] }

// inProcess is the serial in-process sweep every tier-1 `run` uses: the
// Scheduler over an InProcess executor.
func inProcess(m meter.EnergyMeter) *Scheduler {
	return &Scheduler{Executor: &InProcess{Meter: m}}
}

// sweep runs the trials through s, collecting the results.
func sweep(ctx context.Context, s *Scheduler, trials ...Trial) ([]Result, error) {
	var c Collector
	err := s.RunPlan(ctx, trials, &c)
	return c.Results, err
}

func TestRunnerSweepsFullSpace(t *testing.T) {
	r := inProcess(meter.NewMock(42))
	results, err := sweep(context.Background(), r, tinyTrials(tinySpecs, 1, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 { // 2 specs × 2 thread counts × 1 placement
		t.Fatalf("got %d results, want 4", len(results))
	}
	for _, res := range results {
		if len(res.Samples) != 3 {
			t.Errorf("%s/t%d: %d samples, want 3 (warmup must be discarded)", res.Spec, res.Threads, len(res.Samples))
		}
		if res.TimeS.Mean <= 0 {
			t.Errorf("%s/t%d: non-positive mean time %v", res.Spec, res.Threads, res.TimeS.Mean)
		}
		if res.EnergyJ.Mean < 0 {
			t.Errorf("%s/t%d: negative mean energy %v", res.Spec, res.Threads, res.EnergyJ.Mean)
		}
		if res.EDP != res.EnergyJ.Mean*res.TimeS.Mean {
			t.Errorf("%s/t%d: EDP %v != mean(E)·mean(T) %v", res.Spec, res.Threads, res.EDP, res.EnergyJ.Mean*res.TimeS.Mean)
		}
		if res.Meter != "mock" {
			t.Errorf("%s/t%d: meter = %q, want mock", res.Spec, res.Threads, res.Meter)
		}
	}
}

func TestRunnerContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := inProcess(meter.NewMock(42))
	if _, err := sweep(ctx, r, tinyTrials(tinySpecs, 1, 2)...); err == nil {
		t.Error("want context error from cancelled run, got nil")
	}
}

// TestRunnerIterScale: the executor runs the trial's scaled iteration
// count, not its spec's default.
func TestRunnerIterScale(t *testing.T) {
	tr := tinyTrial(1)
	tr.Iters = tinyInt.Iters / 2
	r := inProcess(meter.NewMock(42))
	results, err := sweep(context.Background(), r, tr)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Iters != 1000 {
		t.Errorf("Iters = %d, want the trial's 1000, half the spec's 2000", results[0].Iters)
	}
}

// failingMeter errors on every Read, exercising the harness error path.
type failingMeter struct{}

func (failingMeter) Name() string            { return "failing" }
func (failingMeter) Domains() []meter.Domain { return []meter.Domain{{Name: "d"}} }
func (failingMeter) Read() (meter.Reading, error) {
	return meter.Reading{}, errors.New("meter read failed")
}

// TestRunnerMeterFailureReleasesWorkers is a regression test: a meter read
// error must surface as an error AND unpark the worker goroutines (which
// hold locked OS threads) rather than leaking them on the start barrier.
func TestRunnerMeterFailureReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	r := inProcess(failingMeter{})
	if _, err := sweep(context.Background(), r, tinyTrials(tinySpecs, 4)...); err == nil {
		t.Fatal("want error from failing meter, got nil")
	}
	// Workers exit asynchronously after done.Wait; give the scheduler a
	// few chances before declaring a leak.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestRunnerCoRunPairs checks a paired configuration runs both specs
// concurrently and reports per-spec wall times alongside the shared energy.
func TestRunnerCoRunPairs(t *testing.T) {
	pairs := tinyTrials([]bench.Spec{tinyInt}, 1, 2)
	specB := tinyChase
	for i := range pairs {
		pairs[i].SpecB, pairs[i].ItersB = &specB, specB.Iters
		pairs[i].Warmup, pairs[i].MinReps, pairs[i].MaxReps = 0, 2, 2
	}
	r := inProcess(meter.NewMock(42))
	results, err := sweep(context.Background(), r, pairs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 { // 1 pair × 2 thread counts × 1 placement
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, res := range results {
		if !res.IsCoRun() {
			t.Fatalf("co-run result not flagged: %+v", res)
		}
		if res.Spec != "tiny-int" || res.SpecB != "tiny-chase" {
			t.Errorf("specs = %q+%q, want tiny-int+tiny-chase", res.Spec, res.SpecB)
		}
		if res.ThreadsB != res.Threads {
			t.Errorf("threads_b = %d, want %d", res.ThreadsB, res.Threads)
		}
		if res.TimeA == nil || res.TimeB == nil {
			t.Fatalf("co-run result missing per-spec time summaries")
		}
		if res.TimeA.Mean <= 0 || res.TimeB.Mean <= 0 {
			t.Errorf("per-spec times = %v/%v, want both positive", res.TimeA.Mean, res.TimeB.Mean)
		}
		for _, s := range res.Samples {
			if s.TimeAS <= 0 || s.TimeBS <= 0 {
				t.Errorf("sample per-spec times = %v/%v, want both positive", s.TimeAS, s.TimeBS)
			}
			if s.TimeS < s.TimeAS && s.TimeS < s.TimeBS {
				t.Errorf("overall time %v below both per-spec times %v/%v", s.TimeS, s.TimeAS, s.TimeBS)
			}
		}
		if len(res.Domains) == 0 {
			t.Error("result missing meter domain names")
		}
	}
	// Solo results must not carry co-run summaries.
	solo, err := sweep(context.Background(), r, tinyTrials(tinySpecs, 1, 2)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range solo {
		if res.IsCoRun() || res.TimeA != nil || res.TimeB != nil {
			t.Errorf("solo result carries co-run fields: %+v", res)
		}
	}
}

// TestRunnerMidSweepCancellation cancels after the first configuration
// completes: the sweep must return the partial results with the context
// error, and must not leak the worker goroutines holding locked OS threads.
func TestRunnerMidSweepCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Scheduler{
		Executor: &InProcess{
			Meter: meter.NewMock(42),
			// Stub the pin syscall so PlaceCompact (which locks OS threads)
			// works in any sandbox; the locking path is what we exercise.
			pin: func(int) (func() error, error) { return func() error { return nil }, nil },
		},
		Log:    func(string, ...any) { cancel() },
		groups: fakeGroups(),
	}
	trials := tinyTrials(tinySpecs, 1, 2)
	for i := range trials {
		trials[i].Placement = PlaceCompact
	}
	results, err := sweep(ctx, r, trials...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == 0 {
		t.Fatal("mid-sweep cancellation dropped the completed partial results")
	}
	if len(results) >= 4 {
		t.Fatalf("got all %d results despite cancellation after the first", len(results))
	}
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked after cancellation: %d before, %d after", before, runtime.NumGoroutine())
}

// secondReadFailsMeter succeeds on the opening read and fails on the closing
// one, modelling a meter that dies mid-measurement.
type secondReadFailsMeter struct {
	inner meter.EnergyMeter
	reads int
}

func (m *secondReadFailsMeter) Name() string            { return m.inner.Name() }
func (m *secondReadFailsMeter) Domains() []meter.Domain { return m.inner.Domains() }
func (m *secondReadFailsMeter) Read() (meter.Reading, error) {
	m.reads++
	if m.reads%2 == 0 {
		return meter.Reading{}, errors.New("closing read failed")
	}
	return m.inner.Read()
}

// TestRunnerPinErrorNotMaskedByReadError is a regression test: when both the
// thread pin and the closing meter read fail, the returned error must carry
// both — the pin error used to be dropped.
func TestRunnerPinErrorNotMaskedByReadError(t *testing.T) {
	pinFailure := errors.New("pin failed")
	r := &Scheduler{
		Executor: &InProcess{
			Meter: &secondReadFailsMeter{inner: meter.NewMock(42)},
			pin:   func(int) (func() error, error) { return nil, pinFailure },
		},
		groups: fakeGroups(),
	}
	tr := tinyTrial(2)
	tr.Placement, tr.Warmup = PlaceCompact, 0
	_, err := sweep(context.Background(), r, tr)
	if err == nil {
		t.Fatal("want error, got nil")
	}
	if !errors.Is(err, pinFailure) {
		t.Errorf("pin error dropped from %v", err)
	}
	if !strings.Contains(err.Error(), "closing read failed") {
		t.Errorf("meter read error dropped from %v", err)
	}
}

func TestParsePlacement(t *testing.T) {
	for _, ok := range []string{"none", "compact", "scatter"} {
		if _, err := ParsePlacement(ok); err != nil {
			t.Errorf("ParsePlacement(%q) = %v", ok, err)
		}
	}
	if _, err := ParsePlacement("diagonal"); err == nil {
		t.Error("want error for unknown placement")
	}
}

func TestParseCPUList(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0,2,4", []int{0, 2, 4}, false},
		{"0-1,8,10-11", []int{0, 1, 8, 10, 11}, false},
		{"7", []int{7}, false},
		{"3-1", nil, true},
		{"x", nil, true},
	}
	for _, tc := range tests {
		got, err := parseCPUList(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseCPUList(%q): want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseCPUList(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestCPUAssignmentPolicies(t *testing.T) {
	if got := CPUAssignment(PlaceNone, 4); got != nil {
		t.Errorf("PlaceNone assignment = %v, want nil", got)
	}
	for _, p := range []Placement{PlaceCompact, PlaceScatter} {
		got := CPUAssignment(p, 3)
		if len(got) != 3 {
			t.Errorf("%s: assignment length = %d, want 3", p, len(got))
		}
		for _, cpu := range got {
			if cpu < 0 {
				t.Errorf("%s: negative CPU id %d", p, cpu)
			}
		}
	}
}

// TestSysfsCoreGroupsRespectsOnlineList checks topology discovery walks the
// sysfs online CPU list (which can be sparse under cpusets) rather than
// assuming dense ids, and degrades to nil on malformed trees.
func TestSysfsCoreGroupsRespectsOnlineList(t *testing.T) {
	root := t.TempDir()
	writeFile := func(rel, content string) {
		t.Helper()
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// CPU 0 online and always in the affinity mask; its core has only
	// itself as sibling.
	writeFile("online", "0\n")
	writeFile("cpu0/topology/thread_siblings_list", "0\n")
	groups := sysfsCoreGroups(root)
	if !reflect.DeepEqual(groups, [][]int{{0}}) {
		t.Errorf("groups = %v, want [[0]]", groups)
	}

	// Missing topology file for a listed CPU → give up (nil), triggering
	// the dense fallback in coreGroups.
	bare := t.TempDir()
	if err := os.WriteFile(filepath.Join(bare, "online"), []byte("0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := sysfsCoreGroups(bare); got != nil {
		t.Errorf("groups = %v, want nil for incomplete topology", got)
	}
}

func TestOnlineCPUsFallsBackWithoutOnlineFile(t *testing.T) {
	cpus := onlineCPUs(t.TempDir())
	if len(cpus) != runtime.NumCPU() {
		t.Fatalf("got %d cpus, want %d", len(cpus), runtime.NumCPU())
	}
	for i, c := range cpus {
		if c != i {
			t.Errorf("cpus[%d] = %d, want dense ids", i, c)
		}
	}
}

// TestCPUAssignmentWithSyntheticTopology checks that compact fills SMT
// siblings first while scatter spreads across physical cores, using a fake
// 2-core/4-thread topology (cores {0,2} and {1,3}).
func TestCPUAssignmentWithSyntheticTopology(t *testing.T) {
	cores := [][]int{{0, 2}, {1, 3}}
	compact := assignFromGroups(PlaceCompact, 4, cores)
	if !reflect.DeepEqual(compact, []int{0, 2, 1, 3}) {
		t.Errorf("compact = %v, want [0 2 1 3]", compact)
	}
	scatter := assignFromGroups(PlaceScatter, 4, cores)
	if !reflect.DeepEqual(scatter, []int{0, 1, 2, 3}) {
		t.Errorf("scatter = %v, want [0 1 2 3]", scatter)
	}
	wrap := assignFromGroups(PlaceScatter, 5, cores)
	if wrap[4] != 0 {
		t.Errorf("assignment must wrap around: got %v", wrap)
	}
}
