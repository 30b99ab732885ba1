package harness

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// Executor runs one planned trial and produces its aggregated result. The
// in-process implementation below runs kernels on pinned OS threads of this
// process; the interface exists so alternative backends (forked processes,
// remote agents) can slot under the same planner and sinks.
type Executor interface {
	Execute(ctx context.Context, t Trial) (Result, error)
}

// InProcess executes trials on this process's own threads: per-unit
// workers set up once per trial, each repetition released by the shared
// measurement core (Measure) between its meter reads, with the calling
// goroutine running unit 0. Its zero value (plus a Meter) is
// ready to use; workspaces built for one trial are kept for later trials
// of the same executor (see wsCache), so one executor should live as long
// as the sweep it runs: a whole local run, or all of a fleet agent's
// batches until the agent goes idle or their execution environment
// changes.
type InProcess struct {
	Meter meter.EnergyMeter
	// pin overrides the thread-pinning syscall in tests; nil means the
	// platform pinThread.
	pin func(cpu int) (unpin func() error, err error)
	// newActivity overrides ActivityMeter construction in tests; nil means
	// perf.NewMeter over the trial's counter spec.
	newActivity func(perf.Spec) (perf.ActivityMeter, error)
	// newWorkspace overrides workspace construction in tests; nil means
	// bench.NewWorkspace.
	newWorkspace func(bench.Spec, uint64) *bench.Workspace

	workspaces wsCache
}

func (e *InProcess) pinFunc() func(int) (func() error, error) {
	if e.pin != nil {
		return e.pin
	}
	return pinThread
}

func (e *InProcess) activityMeter(spec perf.Spec) (perf.ActivityMeter, error) {
	if e.newActivity != nil {
		return e.newActivity(spec)
	}
	return perf.NewMeter(spec)
}

// workUnit is one worker's assignment: which spec's kernel to run, the
// seed of its workspace, and which spec group (A=0, B=1) its wall time
// belongs to. The spec's component hints the mock activity backend at its
// planted rates. ws is nil until the unit's worker acquires it while the
// trial is set up; every repetition reuses it, so the chase position
// carries over from rep to rep.
type workUnit struct {
	spec  bench.Spec
	seed  uint64
	iters int
	group int
	ws    *bench.Workspace
}

// Execute runs the trial's repetitions through Measure on workers that live
// for the trial. The calling goroutine is unit 0; every further unit gets
// one helper goroutine. Each worker sets itself up once, before the first
// repetition: when the trial is pinned or counted it locks its OS thread
// (and pins it, when pinned), then acquires its workspace and opens its
// counter session. A repetition is then one kernel call per unit between
// a Start and a Stop of its session. With the caller as unit 0, a
// one-unit trial runs its kernel on the measuring goroutine itself, with
// no thread wake-up inside the meter window, and a pinned trial's meter
// reads run on unit 0's CPU.
//
// The workers are torn down when Execute returns, on success, failure and
// cancellation alike: sessions closed, masks restored, threads unlocked. A
// thread whose mask cannot be restored stays locked: a helper's dies with
// its goroutine, and the caller's stays with the calling goroutine, so the
// runtime retires it when that goroutine exits (the Scheduler's launch
// goroutine exits right after the trial; a worker child exits after its
// one trial).
func (e *InProcess) Execute(ctx context.Context, t Trial) (Result, error) {
	if err := graftKernel(&t.Spec); err != nil {
		return Result{}, err
	}
	if t.SpecB != nil {
		specB := *t.SpecB
		if err := graftKernel(&specB); err != nil {
			return Result{}, err
		}
		t.SpecB = &specB
	}

	// Per-unit workspace seeds, distinct so chase cycles differ and units
	// never share buffers. Co-run units are interleaved A,B,A,B… so
	// compact placement lands each A/B pair on SMT siblings of one core
	// and scatter lands them on distinct physical cores.
	var units []workUnit
	seed := func(i int) uint64 { return uint64(i)*0x9e3779b9 + 12345 }
	if t.SpecB == nil {
		for i := 0; i < t.Threads; i++ {
			units = append(units, workUnit{t.Spec, seed(i), t.Iters, 0, nil})
		}
	} else {
		for i := 0; i < t.Threads; i++ {
			units = append(units,
				workUnit{t.Spec, seed(2 * i), t.Iters, 0, nil},
				workUnit{*t.SpecB, seed(2*i + 1), t.ItersB, 1, nil})
		}
	}
	if len(units) == 0 {
		return Result{}, fmt.Errorf("harness: trial has no worker threads (threads %d)", t.Threads)
	}
	cpus := t.CPUs
	if cpus == nil {
		cpus = CPUAssignment(t.Placement, len(units))
	} else if len(cpus) != len(units) {
		return Result{}, fmt.Errorf("harness: trial has %d explicit CPUs for %d worker threads", len(cpus), len(units))
	}
	e.workspaces.widen(units)

	var activity perf.ActivityMeter
	if t.Counters != nil {
		am, err := e.activityMeter(*t.Counters)
		if err != nil {
			return Result{}, fmt.Errorf("harness: activity meter: %w", err)
		}
		activity = am
	}

	c := e.hire(units, cpus, activity)
	defer c.dismiss()
	return Measure(ctx, e.Meter, t, func() (Region, error) {
		return c.region(t.SpecB != nil), nil
	})
}

// worker is one unit's state for a trial: its workspace and counter
// session, the errors its set-up and repetitions met, and what its latest
// repetition produced.
type worker struct {
	unit workUnit
	cpu  int // pinned logical CPU, -1 when unpinned
	sess *liveSession
	// run wakes a helper for one repetition; closing it ends the helper.
	// The caller's worker (unit 0) has none.
	run chan struct{}

	pinErr, ctrErr error
	begin, end     time.Time // the latest repetition's start and kernel end
	counts         perf.Counts
	sink           uint64
}

// liveSession is a kept counter session as the sampler polls it. Until its
// unit Starts it, a kept session still reports the previous repetition's
// final counts, so it reports nothing until live: the region's counter
// baseline is zero, and a tick that lands before a unit has started adds
// nothing stale to the series.
type liveSession struct {
	perf.Session
	live atomic.Bool
}

func (s *liveSession) Poll() (perf.Counts, error) {
	if !s.live.Load() {
		return perf.Counts{}, nil
	}
	return s.Session.Poll()
}

// crew is one trial's workers: workers[0] runs on the goroutine that
// called Execute, every other on a helper goroutine of its own.
type crew struct {
	workers  []*worker
	counted  Region         // the opened sessions and counter layout; zero when uncounted
	done     sync.WaitGroup // the helpers' current repetition
	exited   sync.WaitGroup // the helpers' teardown
	tearDown func()         // the caller's own teardown
}

// hire sets up a trial's workers and returns once every one is set up:
// each helper on its own goroutine, unit 0 on the caller. The workspace
// builds run in parallel, a pinned worker touches its pages first, and
// every build finishes before Measure's opening meter read.
func (e *InProcess) hire(units []workUnit, cpus []int, activity perf.ActivityMeter) *crew {
	c := &crew{workers: make([]*worker, len(units))}
	for i, u := range units {
		w := &worker{unit: u, cpu: -1}
		if cpus != nil {
			w.cpu = cpus[i]
		}
		if i > 0 {
			w.run = make(chan struct{}, 1)
		}
		c.workers[i] = w
	}
	pinned, lock := cpus != nil, cpus != nil || activity != nil
	var ready sync.WaitGroup
	ready.Add(len(units) - 1)
	c.exited.Add(len(units) - 1)
	for _, w := range c.workers[1:] {
		go func() {
			defer c.exited.Done()
			tearDown := e.setUp(w, pinned, lock, activity)
			defer tearDown()
			ready.Done()
			for range w.run {
				w.rep()
				c.done.Done()
			}
		}()
	}
	c.tearDown = e.setUp(c.workers[0], pinned, lock, activity)
	ready.Wait()
	if activity != nil {
		c.counted.Backend, c.counted.Events = activity.Name(), activity.Events()
		for _, w := range c.workers {
			c.counted.Threads = append(c.counted.Threads, CounterThread{CPU: w.cpu, Group: w.unit.group})
			if w.sess != nil {
				c.counted.Sessions = append(c.counted.Sessions, w.sess)
			}
		}
	}
	return c
}

// setUp makes the calling goroutine worker w's for the trial and returns
// its teardown. The OS thread must stay fixed whenever it is pinned *or*
// counted: a per-thread perf session binds to the OS thread that opened
// it, so goroutine migration mid-kernel would silently divorce the counts
// from the work. The counter session opens after pinning, so a per-CPU
// session lands on the right CPU. A pin or open failure is recorded, not
// fatal here: the worker still takes part in every repetition, which
// fails on it.
func (e *InProcess) setUp(w *worker, pinned, lock bool, activity perf.ActivityMeter) (tearDown func()) {
	unlock := func() {}
	if lock {
		runtime.LockOSThread()
		unlock = runtime.UnlockOSThread
		if pinned {
			if unpin, err := e.pinFunc()(w.cpu); err != nil {
				w.pinErr = err
			} else {
				// The thread goes back to the runtime's pool only with
				// its original mask restored; one that cannot be
				// restored stays locked.
				unlock = func() {
					if unpin() == nil {
						runtime.UnlockOSThread()
					}
				}
			}
		}
	}
	w.unit.ws = e.workspace(w.unit, w.cpu)
	if activity != nil {
		if s, err := activity.OpenThread(w.cpu, string(w.unit.spec.Component)); err != nil {
			w.ctrErr = err
		} else {
			w.sess = &liveSession{Session: s}
		}
	}
	return func() {
		if w.sess != nil {
			w.sess.Close()
		}
		unlock()
	}
}

// rep runs one repetition of w's kernel between a Start and a Stop of its
// counter session, stamping when it began and when its kernel ended.
func (w *worker) rep() {
	w.begin = time.Now()
	counting := false
	if w.sess != nil {
		if err := w.sess.Start(); err != nil {
			w.ctrErr = err
		} else {
			w.sess.live.Store(true)
			counting = true
		}
	}
	w.sink += w.unit.spec.Kernel(w.unit.ws, w.unit.iters)
	w.end = time.Now()
	if counting {
		if c, err := w.sess.Stop(); err != nil {
			w.ctrErr = err
		} else {
			w.counts = c
		}
	}
}

// region prepares one repetition. Release wakes the helpers, runs unit 0
// on the calling goroutine and waits for the helpers; with an activity
// meter every unit counts exactly its own kernel call, and Measured hands
// back each unit's counts.
func (c *crew) region(corun bool) Region {
	for _, w := range c.workers {
		if w.sess != nil {
			w.sess.live.Store(false)
		}
	}
	r := c.counted
	r.Release = func() error {
		helpers := c.workers[1:]
		c.done.Add(len(helpers))
		for _, w := range helpers {
			w.run <- struct{}{}
		}
		if len(helpers) > 0 {
			// A woken goroutine waits in its waker's run-next slot, which
			// another P steals only after a pause of tens of microseconds
			// while the waker keeps running, so a helper would start that
			// much after unit 0. Yielding once hands this P to the helper
			// at once and puts the caller on the global run queue, which an
			// idle P serves without that pause. A locked caller's thread
			// hands its P off and sleeps until it is handed back, and that
			// still beats leaving a locked helper to the stealing P
			// (BenchmarkInProcessOverhead's pinned and counted two-unit
			// cases).
			runtime.Gosched()
		}
		c.workers[0].rep()
		c.done.Wait()
		// A pin failure invalidates the placement and a counter failure
		// the activity vector the model will regress against.
		var pinErr, ctrErr error
		for _, w := range c.workers {
			pinErr = cmp.Or(pinErr, w.pinErr)
			ctrErr = cmp.Or(ctrErr, w.ctrErr)
		}
		return errors.Join(pinErr, ctrErr)
	}
	r.Measured = func(s *Sample) (counts []perf.Counts) {
		if c.counted.Events != nil {
			counts = make([]perf.Counts, len(c.workers))
			for i, w := range c.workers {
				counts[i] = w.counts
			}
		}
		if !corun {
			return counts
		}
		// Every unit is timed from the repetition's first start, so a unit
		// that waits for a free CPU behind the others (an unpinned co-run
		// with more units than Ps runs them in turns) counts that wait,
		// while the harness's latency in waking the first unit does not, as
		// a one-thread solo's time has none.
		first := c.workers[0].begin
		for _, w := range c.workers[1:] {
			if w.begin.Before(first) {
				first = w.begin
			}
		}
		for _, w := range c.workers {
			elapsed := w.end.Sub(first).Seconds()
			if w.unit.group == 0 {
				s.TimeAS = max(s.TimeAS, elapsed)
			} else {
				s.TimeBS = max(s.TimeBS, elapsed)
			}
		}
		return counts
	}
	return r
}

// dismiss ends the helpers and tears every worker down, returning once
// every thread's mask is restored.
func (c *crew) dismiss() {
	for _, w := range c.workers[1:] {
		close(w.run)
	}
	c.tearDown()
	c.exited.Wait()
	var sink uint64
	for _, w := range c.workers {
		sink += w.sink
	}
	atomic.AddUint64(&bench.Sink, sink)
}

// graftKernel restores what a serialized spec cannot carry: the kernel
// function pointer, plus any catalog parameter the JSON left zero. It is
// the one place trials that crossed a process boundary (a worker child's
// stdin, a fleet batch) get their kernels back. A hand-written trial may
// name just the spec ("chase-dram"); without its catalog working set the
// chase kernel would run on an empty workspace and panic. Specs that still
// carry a kernel are left alone.
func graftKernel(spec *bench.Spec) error {
	if spec.Kernel != nil {
		return nil
	}
	cat, err := bench.Lookup(spec.Name)
	if err != nil {
		return err
	}
	spec.Kernel = cat.Kernel
	if spec.Component == "" {
		spec.Component = cat.Component
	}
	if spec.WorkingSet == 0 {
		spec.WorkingSet = cat.WorkingSet
	}
	if spec.Unroll == 0 {
		spec.Unroll = cat.Unroll
	}
	if spec.Iters == 0 {
		spec.Iters = cat.Iters
	}
	return nil
}
