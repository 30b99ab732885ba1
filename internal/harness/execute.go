package harness

import (
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

// InProcess executes trials on this process's own threads: per-thread
// workspaces behind a start barrier, released by the shared measurement
// core (Measure) between its meter reads. Its zero value (plus a Meter) is
// ready to use; workspaces built for one trial are kept for later trials
// of the same executor (see wsCache), so one executor should live as long
// as the sweep it runs.
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

// workUnit is one worker thread's assignment: which spec's kernel to run,
// the seed of its workspace, and which spec group (A=0, B=1) its wall time
// belongs to. The spec's component hints the mock activity backend at its
// planted rates. ws is nil until the unit's worker acquires it in the
// trial's first repetition; later repetitions reuse it, so the chase
// position carries over from rep to rep.
type workUnit struct {
	spec  bench.Spec
	seed  uint64
	iters int
	group int
	ws    *bench.Workspace
}

// Execute runs the trial's repetitions through Measure, parking the worker
// threads behind a fresh barrier for every repetition.
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

	// Per-thread workspace seeds, distinct so chase cycles differ and
	// threads never share buffers; each unit's worker acquires its
	// workspace in park. Co-run units are interleaved A,B,A,B… so compact
	// placement lands each A/B pair on SMT siblings of one core and
	// scatter lands them on distinct physical cores.
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
	cpus := t.CPUs
	if cpus == nil {
		cpus = cpuAssignment(t.Placement, len(units))
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

	var repCounts [][]perf.Counts
	res, err := Measure(ctx, e.Meter, t, func() (Region, error) {
		return e.park(units, cpus, t.SpecB != nil, activity, &repCounts), nil
	})
	if err != nil {
		return res, err
	}
	if activity != nil {
		res.Counters = buildCounters(activity.Name(), activity.Events(), units, cpus, repCounts)
	}
	return res, nil
}

// park starts one repetition's worker threads and returns once every one
// is parked on the start barrier, pinned, holding its workspace and with
// its counter group open. Each thread records its own wall time, so co-runs
// can report per-spec times. With an activity meter, every worker opens its
// own counter group (on its pinned CPU, when pinned) and counts exactly the
// measured region; a measured repetition's per-thread counts are appended
// to repCounts, parallel to units. In the trial's first repetition each
// worker acquires its unit's workspace itself, after pinning: the builds
// run in parallel, a pinned worker touches its pages first, and every
// build finishes before Measure's opening meter read.
func (e *InProcess) park(units []workUnit, cpus []int, corun bool, activity perf.ActivityMeter, repCounts *[][]perf.Counts) Region {
	threads := len(units)
	start := make(chan struct{})
	abort := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(threads)
	done.Add(threads)
	// errBox gives every Store the same concrete type: atomic.Value panics
	// on stores of differing types, and these slots receive errors of
	// several concrete kinds (syscall errnos, wrapped fmt errors).
	type errBox struct{ err error }
	var pinErr, ctrErr atomic.Value
	var sink uint64
	var t0 time.Time
	elapsedPer := make([]float64, threads)
	var countsPer []perf.Counts
	// sessPer exposes each worker's counter session to the sampler. Slots
	// are written before ready.Done(), so ready.Wait() orders them before
	// the sampler starts polling.
	var sessPer []perf.Session
	if activity != nil {
		countsPer = make([]perf.Counts, threads)
		sessPer = make([]perf.Session, threads)
	}
	pin := e.pinFunc()

	for t := 0; t < threads; t++ {
		go func(t int) {
			defer done.Done()
			// The OS thread must stay fixed whenever it is pinned *or*
			// counted: a per-thread perf session binds to the OS thread that
			// opened it, so goroutine migration mid-kernel would silently
			// divorce the counts from the work.
			if cpus != nil || activity != nil {
				runtime.LockOSThread()
				unlock := runtime.UnlockOSThread
				if cpus != nil {
					if unpin, err := pin(cpus[t]); err != nil {
						pinErr.Store(errBox{err})
					} else {
						// The thread goes back to the runtime's pool only
						// with its original mask restored; one that cannot
						// be restored stays locked, so the runtime retires
						// it with this goroutine.
						unlock = func() {
							if unpin() == nil {
								runtime.UnlockOSThread()
							}
						}
					}
				}
				defer unlock()
			}
			cpu := -1
			if cpus != nil {
				cpu = cpus[t]
			}
			if units[t].ws == nil {
				units[t].ws = e.workspace(units[t], cpu)
			}
			// Counter groups open after pinning so a per-CPU session lands
			// on the right CPU. An open failure is recorded, not fatal here:
			// the thread still participates in the barrier (abandoning it
			// would wedge the others) and the repetition is rejected after.
			var sess perf.Session
			if activity != nil {
				s, err := activity.OpenThread(cpu, string(units[t].spec.Component))
				if err != nil {
					ctrErr.Store(errBox{err})
				} else {
					sess = s
					sessPer[t] = s
					defer sess.Close()
				}
			}
			ready.Done()
			select {
			case <-start:
			case <-abort:
				return
			}
			u := units[t]
			if sess != nil {
				if err := sess.Start(); err != nil {
					ctrErr.Store(errBox{err})
					sess = nil
				}
			}
			v := u.spec.Kernel(u.ws, u.iters)
			// t0 is written before close(start), so reading it here is
			// ordered by the channel close.
			elapsedPer[t] = time.Since(t0).Seconds()
			if sess != nil {
				counts, err := sess.Stop()
				if err != nil {
					ctrErr.Store(errBox{err})
				} else {
					countsPer[t] = counts
				}
			}
			atomic.AddUint64(&sink, v)
		}(t)
	}
	ready.Wait()

	r := Region{Sessions: sessPer}
	if activity != nil {
		r.Events = activity.Events()
	}
	// Abort releases the parked workers (which hold locked OS threads)
	// without running them.
	r.Abort = func() {
		close(abort)
		done.Wait()
	}
	r.Release = func() error {
		t0 = time.Now()
		close(start)
		done.Wait()
		atomic.AddUint64(&bench.Sink, sink)
		// A pin failure invalidates the placement and a counter failure
		// the activity vector the model will regress against.
		var errs []error
		for _, slot := range []*atomic.Value{&pinErr, &ctrErr} {
			if b := slot.Load(); b != nil {
				errs = append(errs, b.(errBox).err)
			}
		}
		return errors.Join(errs...)
	}
	r.Measured = func(s *Sample) {
		if countsPer != nil {
			*repCounts = append(*repCounts, countsPer)
		}
		if !corun {
			return
		}
		for t, u := range units {
			if u.group == 0 {
				s.TimeAS = max(s.TimeAS, elapsedPer[t])
			} else {
				s.TimeBS = max(s.TimeBS, elapsedPer[t])
			}
		}
	}
	return r
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
