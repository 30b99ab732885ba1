package harness

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// scriptedMeter returns counter values from a caller-provided function of
// the read index, so tests control the exact energy delta of every
// repetition (the executor reads the meter twice per rep: before and after).
type scriptedMeter struct {
	reads   int
	counter func(read int) uint64
}

func (m *scriptedMeter) Name() string            { return "scripted" }
func (m *scriptedMeter) Domains() []meter.Domain { return []meter.Domain{{Name: "scripted-0"}} }
func (m *scriptedMeter) Read() (meter.Reading, error) {
	v := m.counter(m.reads)
	m.reads++
	return meter.Reading{Counters: []uint64{v}}, nil
}

// constantDeltaCounter yields exactly deltaMicroJ between the before/after
// reads of every repetition and nothing in between.
func constantDeltaCounter(deltaMicroJ uint64) func(int) uint64 {
	return func(read int) uint64 { return deltaMicroJ * uint64((read+1)/2) }
}

// sampleSequenceCounter yields the given per-repetition energy deltas in
// order (repeating the last one), with no energy between repetitions.
func sampleSequenceCounter(deltasMicroJ []uint64) func(int) uint64 {
	return func(read int) uint64 {
		rep := read / 2
		var sum uint64
		for i := 0; i < rep && i < len(deltasMicroJ); i++ {
			sum += deltasMicroJ[i]
		}
		if rep >= len(deltasMicroJ) {
			sum += deltasMicroJ[len(deltasMicroJ)-1] * uint64(rep-len(deltasMicroJ)+1)
		}
		if read%2 == 1 {
			if rep < len(deltasMicroJ) {
				sum += deltasMicroJ[rep]
			} else {
				sum += deltasMicroJ[len(deltasMicroJ)-1]
			}
		}
		return sum
	}
}

// adaptiveTrial runs one warm-up, then 3 to 10 measured repetitions,
// stopping early once the energy CV falls to 0.05.
func adaptiveTrial() Trial {
	tr := tinyTrial(1)
	tr.MinReps, tr.MaxReps, tr.CVTarget = 3, 10, 0.05
	return tr
}

// TestAdaptiveRepsStopEarlyOnStableConfig is the acceptance-criteria test:
// with a low-variance (here: perfectly constant) energy source, adaptive
// repetitions must stop at the minimum rep count, well under --max-reps.
func TestAdaptiveRepsStopEarlyOnStableConfig(t *testing.T) {
	m := &scriptedMeter{counter: constantDeltaCounter(1000)}
	r := inProcess(m)
	results, err := sweep(context.Background(), r, adaptiveTrial())
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Samples) != 3 {
		t.Errorf("executed %d reps, want exactly MinReps=3 for a zero-CV config (MaxReps=10)", len(res.Samples))
	}
	if !res.Converged {
		t.Error("result not marked converged")
	}
	if res.EnergyJ.CV > 0.05 {
		t.Errorf("energy CV = %v, want ≤ target 0.05", res.EnergyJ.CV)
	}
}

// TestAdaptiveRepsRunToCapOnNoisyConfig is the dual: an energy source whose
// CV never reaches the target must run all the way to MaxReps and not be
// marked converged.
func TestAdaptiveRepsRunToCapOnNoisyConfig(t *testing.T) {
	// Period-3 cycle keeps the sample CV ~0.9 forever.
	m := &scriptedMeter{counter: sampleSequenceCounter([]uint64{100, 100, 10000, 100, 100, 10000, 100, 100, 10000, 100, 100, 10000})}
	r := inProcess(m)
	tr := adaptiveTrial()
	tr.MaxCV = 0 // keep every sample so the count is exact
	results, err := sweep(context.Background(), r, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Samples) != 10 {
		t.Errorf("executed %d reps, want the MaxReps cap of 10", len(res.Samples))
	}
	if res.Converged {
		t.Error("noisy config marked converged")
	}
}

// TestFixedRepsUnchanged pins the legacy behavior: with the Reps shorthand
// exactly Reps repetitions run, and even a zero-CV config is not labeled
// converged — nothing stopped early.
func TestFixedRepsUnchanged(t *testing.T) {
	m := &scriptedMeter{counter: constantDeltaCounter(1000)}
	r := inProcess(m)
	tr := tinyTrial(1)
	tr.CVTarget = 0.05 // the CLI default; must be inert when min == max reps
	results, err := sweep(context.Background(), r, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(results[0].Samples); n != 3 {
		t.Errorf("fixed-rep run executed %d reps, want 3", n)
	}
	if results[0].Converged {
		t.Error("fixed-rep run marked converged despite no early stop")
	}
}

// latencyMeter models a meter whose reads cost a fixed latency: its internal
// clock advances by latency on every Read and energy accrues at powerW on
// that clock. Thread wall time never advances this clock, so every
// repetition's meter window is exactly one read latency and its energy delta
// exactly powerW × latency.
type latencyMeter struct {
	powerW  float64
	latency time.Duration
	clock   time.Time
	epoch   time.Time
}

func newLatencyMeter(powerW float64, latency time.Duration) *latencyMeter {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return &latencyMeter{powerW: powerW, latency: latency, clock: base, epoch: base}
}

func (m *latencyMeter) Name() string            { return "latency" }
func (m *latencyMeter) Domains() []meter.Domain { return []meter.Domain{{Name: "lat-0"}} }
func (m *latencyMeter) Read() (meter.Reading, error) {
	m.clock = m.clock.Add(m.latency)
	elapsed := m.clock.Sub(m.epoch).Seconds()
	return meter.Reading{At: m.clock, Counters: []uint64{uint64(elapsed * m.powerW * 1e6)}}, nil
}

// TestPowerUsesMeterWindow is the power-window regression test: the energy
// delta is measured over the meter's before→after window, so PowerW must be
// energy over that same window. With a 50 ms read latency the meter window
// is 50 ms while the threads' wall clock (measured between the reads) is
// microseconds; dividing by the thread clock — the old computation — reports
// thousands of watts for a 40 W meter.
func TestPowerUsesMeterWindow(t *testing.T) {
	const watts = 40.0
	m := newLatencyMeter(watts, 50*time.Millisecond)
	r := inProcess(m)
	results, err := sweep(context.Background(), r, tinyTrial(1))
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range res.Samples {
		if diff := s.MeterTimeS - 0.05; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("sample %d MeterTimeS = %v, want the meter's own 0.05 s window", i, s.MeterTimeS)
		}
		if s.TimeS <= 0 {
			t.Errorf("sample %d TimeS = %v, want positive thread wall time", i, s.TimeS)
		}
		if diff := s.PowerW - watts; diff < -watts*0.01 || diff > watts*0.01 {
			t.Errorf("sample %d PowerW = %v W, want %v W: power must divide the meter-window energy by the meter window, not the thread wall time",
				i, s.PowerW, watts)
		}
	}
}

// TestScriptedMeterPowerFallsBackToThreadClock: meters that do not timestamp
// readings (zero Reading.At) have no meter window; power falls back to the
// thread wall clock instead of reporting zero.
func TestScriptedMeterPowerFallsBackToThreadClock(t *testing.T) {
	m := &scriptedMeter{counter: constantDeltaCounter(1_000_000)} // 1 J per rep
	r := inProcess(m)
	results, err := sweep(context.Background(), r, tinyTrial(1))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range results[0].Samples {
		if s.MeterTimeS != 0 {
			t.Errorf("sample %d MeterTimeS = %v, want 0 for an At-less meter", i, s.MeterTimeS)
		}
		if s.PowerW <= 0 {
			t.Errorf("sample %d PowerW = %v, want positive fallback power", i, s.PowerW)
		}
	}
}

func TestSamplingAttachesSeries(t *testing.T) {
	m := meter.NewMock(42)
	tr := tinyTrial(1)
	tr.SampleInterval = time.Millisecond
	r := inProcess(m)
	results, err := sweep(context.Background(), r, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.SampleInterval != time.Millisecond {
		t.Errorf("SampleInterval = %v, want 1ms", res.SampleInterval)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for i, s := range res.Samples {
		if s.Series == nil {
			t.Fatalf("sample %d has no series", i)
		}
		if s.Series.IntervalS != 0.001 {
			t.Errorf("sample %d IntervalS = %v, want 0.001", i, s.Series.IntervalS)
		}
		if s.Series.StartAt.IsZero() {
			t.Errorf("sample %d series StartAt is zero", i)
		}
		// The final flush guarantees at least one point per repetition no
		// matter how short the kernel runs.
		if len(s.Series.Points) < 1 {
			t.Errorf("sample %d series has no points", i)
		}
		for j, pt := range s.Series.Points {
			if pt.TS <= 0 {
				t.Errorf("sample %d point %d TS = %v, want positive offset", i, j, pt.TS)
			}
			if len(pt.DomainUJ) != 1 {
				t.Errorf("sample %d point %d DomainUJ = %v, want one domain", i, j, pt.DomainUJ)
			}
		}
	}
}

func TestSamplingWithCountersCollectsEventSeries(t *testing.T) {
	m := meter.NewMock(42)
	tr := tinyTrial(2)
	tr.SampleInterval = time.Millisecond
	tr.Counters = &perf.Spec{Backend: perf.BackendMock}
	r := inProcess(m)
	results, err := sweep(context.Background(), r, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	events := perf.DefaultEvents()
	if res.Counters == nil {
		t.Fatal("no aggregated counters")
	}
	for i, s := range res.Samples {
		if s.Series == nil {
			t.Fatalf("sample %d has no series", i)
		}
		if len(s.Series.Events) != len(events) {
			t.Fatalf("sample %d series events = %v, want %v", i, s.Series.Events, events)
		}
		for j, pt := range s.Series.Points {
			if len(pt.Counts) != len(events) {
				t.Errorf("sample %d point %d has %d counts, want %d", i, j, len(pt.Counts), len(events))
			}
			for k, c := range pt.Counts {
				if c < 0 {
					t.Errorf("sample %d point %d count %s = %v, want non-negative", i, j, events[k], c)
				}
			}
		}
	}
}

// TestSeriesCountsSumToCountedTotals: a sampled, counted trial's series
// accounts for every count of its measured repetitions: for each event,
// the series deltas summed over the measured samples, per repetition,
// equal the event's TotalMean. The counter baseline is zero, because
// Start resets every session, so no interval before the first poll goes
// missing. Repetitions of a few microseconds get only the final point;
// ones of a few milliseconds get ticks too.
func TestSeriesCountsSumToCountedTotals(t *testing.T) {
	for _, iters := range []int{tinyInt.Iters, 2_500_000} {
		tr := tinyTrial(2)
		tr.Iters = iters
		tr.SampleInterval = time.Millisecond
		tr.Counters = &perf.Spec{Backend: perf.BackendMock, Events: perf.DefaultEvents()}
		res, err := (&InProcess{Meter: meter.NewMock(42)}).Execute(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters == nil || res.Counters.Reps != len(res.Samples) {
			t.Fatalf("counters = %+v over %d samples", res.Counters, len(res.Samples))
		}
		for e, ev := range res.Counters.Events {
			var sum float64
			for _, s := range res.Samples {
				for _, pt := range s.Series.Points {
					sum += pt.Counts[e]
				}
			}
			got := sum / float64(len(res.Samples))
			if math.Abs(got-ev.TotalMean) > 1e-9*ev.TotalMean {
				t.Errorf("%d iters, %s: series sums to %v per repetition, want the counted total %v", iters, ev.Event, got, ev.TotalMean)
			}
		}
	}
}

// countingActivity wraps an ActivityMeter, counting session opens and,
// per session, every Start, Stop and Close. Its sessions forward
// perf.Poller, so the sampler still polls them.
type countingActivity struct {
	perf.ActivityMeter
	mu       sync.Mutex
	opened   int
	sessions []*countingSession
}

type countingSession struct {
	perf.Session
	a                     *countingActivity
	starts, stops, closes int
}

func (a *countingActivity) OpenThread(cpu int, workload string) (perf.Session, error) {
	s, err := a.ActivityMeter.OpenThread(cpu, workload)
	if err != nil {
		return nil, err
	}
	cs := &countingSession{Session: s, a: a}
	a.mu.Lock()
	a.opened++
	a.sessions = append(a.sessions, cs)
	a.mu.Unlock()
	return cs, nil
}

func (s *countingSession) count(n *int) {
	s.a.mu.Lock()
	*n++
	s.a.mu.Unlock()
}

func (s *countingSession) Start() error { s.count(&s.starts); return s.Session.Start() }

func (s *countingSession) Stop() (perf.Counts, error) {
	s.count(&s.stops)
	return s.Session.Stop()
}

func (s *countingSession) Close() error { s.count(&s.closes); return s.Session.Close() }

func (s *countingSession) Poll() (perf.Counts, error) { return s.Session.(perf.Poller).Poll() }

// TestWorkersSetUpOncePerTrial: through the pin and activity seams, a
// trial's workers pin their threads and open their counter sessions once
// for the whole trial, not once per repetition: a 2-thread compact trial
// of one warm-up and three measured repetitions opens and closes 2
// sessions and pins and restores 2 threads, and a one-thread trial starts
// and stops its one session once per repetition.
func TestWorkersSetUpOncePerTrial(t *testing.T) {
	var mu sync.Mutex
	pins, restores := 0, 0
	var activity *countingActivity
	e := &InProcess{
		Meter: meter.NewMock(42),
		pin: func(int) (func() error, error) {
			mu.Lock()
			pins++
			mu.Unlock()
			return func() error {
				mu.Lock()
				restores++
				mu.Unlock()
				return nil
			}, nil
		},
		newActivity: func(spec perf.Spec) (perf.ActivityMeter, error) {
			am, err := perf.NewMeter(spec)
			activity = &countingActivity{ActivityMeter: am}
			return activity, err
		},
	}
	counters := &perf.Spec{Backend: perf.BackendMock, Events: []string{"instructions"}}
	tr := tinyTrial(2)
	tr.Placement, tr.CPUs, tr.Counters = PlaceCompact, []int{0, 1}, counters
	tr.SampleInterval = time.Millisecond
	if _, err := e.Execute(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	closes := 0
	for _, s := range activity.sessions {
		closes += s.closes
	}
	if activity.opened != 2 || closes != 2 {
		t.Errorf("2-thread trial opened %d and closed %d sessions, want 2 and 2", activity.opened, closes)
	}
	if pins != 2 || restores != 2 {
		t.Errorf("2-thread trial pinned %d threads and restored %d, want 2 and 2", pins, restores)
	}

	tr = tinyTrial(1)
	tr.Counters = counters
	if _, err := e.Execute(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	reps := tr.Warmup + tr.MaxReps
	if len(activity.sessions) != 1 {
		t.Fatalf("1-thread trial opened %d sessions, want 1", len(activity.sessions))
	}
	if s := activity.sessions[0]; s.starts != reps || s.stops != reps || s.closes != 1 {
		t.Errorf("1-thread trial's session: %d starts, %d stops, %d closes; want %d, %d, 1", s.starts, s.stops, s.closes, reps, reps)
	}
}

// TestZeroThreadTrialFails: a kernel trial with no worker threads has
// nothing to measure, so Execute refuses it instead of storing an empty
// measurement. Campaigns reject such a trial; a hand-written worker-trial
// or fleet input can still carry one.
func TestZeroThreadTrialFails(t *testing.T) {
	tr := tinyTrial(1)
	tr.Threads = 0
	_, err := (&InProcess{Meter: meter.NewMock(42)}).Execute(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), "no worker threads") {
		t.Fatalf("err = %v, want the zero-thread trial refused", err)
	}
}

// TestMeasureRefusesBadBudget: a trial whose repetition budget cannot
// produce a measurement (a hand-written worker-trial or fleet input can
// carry one) fails before its first repetition, and the in-process sweep
// records it as a *TrialError, instead of storing zero joules.
func TestMeasureRefusesBadBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(*Trial)
		wantErr string
	}{
		{"no reps", func(tr *Trial) { tr.MinReps, tr.MaxReps = 0, 0 }, "min reps must be positive, got 0"},
		{"max below min", func(tr *Trial) { tr.MaxReps = 2 }, "max reps 2 below min reps 3"},
		{"negative warmup", func(tr *Trial) { tr.Warmup = -1 }, "warmup must be non-negative, got -1"},
		{"NaN cv target", func(tr *Trial) { tr.CVTarget = math.NaN() }, "cv target must be non-negative and finite, got NaN"},
		{"infinite max cv", func(tr *Trial) { tr.MaxCV = math.Inf(1) }, "max cv must be non-negative and finite, got +Inf"},
	} {
		tr := tinyTrial(1)
		tc.mut(&tr)
		prepared := 0
		_, err := Measure(context.Background(), meter.NewMock(42), tr, func() (Region, error) {
			prepared++
			return Region{Release: func() error { return nil }}, nil
		})
		if err == nil || err.Error() != "harness: "+tc.wantErr || prepared != 0 {
			t.Errorf("%s: Measure err = %v after %d repetitions, want %q before the first", tc.name, err, prepared, tc.wantErr)
		}
		results, err := sweep(context.Background(), inProcess(meter.NewMock(42)), tr)
		var te *TrialError
		if len(results) != 0 || !errors.As(err, &te) || !strings.Contains(te.Error(), tc.wantErr) {
			t.Errorf("%s: in-process sweep stored %d results, err = %v; want one *TrialError naming %q", tc.name, len(results), err, tc.wantErr)
		}
	}
}

// TestOversubscribedCoRunCountsWaiting: an unpinned, uncounted co-run with
// more units than Ps runs its units in turns, since a kernel of a few
// milliseconds runs to completion once it has a P. Four units of equal
// work on two Ps cannot all be done before twice one unit's time, so the
// slower spec's time in a 2+2 co-run is at least the fastest 1+1 unit's
// time × units/GOMAXPROCS (with a margin for noise). A clock that started
// at each unit's own start would leave the wait out and read about half.
func TestOversubscribedCoRunCountsWaiting(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	spec, err := bench.Lookup("int-alu")
	if err != nil {
		t.Fatal(err)
	}
	spec.Iters /= 4
	e := &InProcess{Meter: meter.NewMock(42)}
	corun := func(threads int) Result {
		tr := Trial{Spec: spec, SpecB: &spec, Threads: threads, Placement: PlaceNone,
			Iters: spec.Iters, ItersB: spec.Iters, Warmup: 1, MinReps: 10, MaxReps: 10}
		res, err := e.Execute(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unit := math.Inf(1)
	for _, s := range corun(1).Samples {
		unit = min(unit, s.TimeAS, s.TimeBS)
	}
	want := 0.8 * unit * 4 / 2
	for i, s := range corun(2).Samples {
		if got := max(s.TimeAS, s.TimeBS); got < want {
			t.Errorf("2+2 sample %d: slower spec's time %.3g s, want at least %.3g s (1+1 unit %.3g s × 4 units / 2 Ps × 0.8)", i, got, want, unit)
		}
	}
}
