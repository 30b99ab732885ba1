package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Scheduler is the one trial dispatcher: every tier (in-process `run`,
// subprocess workers, fleet agents) sweeps its planned trials through it,
// so a trial fails the same way everywhere. It runs a planned trial list
// with bounded parallelism under a core-leasing discipline: a pinned trial
// is *allocated* onto physical cores that are entirely free at dispatch
// time — the placement policy's topology walk is re-run over just those
// free cores, and the resulting explicit CPU assignment is stamped into
// the trial (Trial.CPUs) and leased until the trial finishes. Two
// concurrently running trials therefore never share a core or an SMT
// sibling pair, and compact/scatter semantics hold *within* each trial
// even when several run at once. Co-run trials allocate the union of both
// specs' interleaved CPU sets in one atomic step, and unpinned (PlaceNone)
// trials lease nothing — they are bounded only by Parallel. At Parallel 1
// (the in-process executor's only setting) trials run strictly one at a
// time in plan order.
//
// Parallel trials share the machine's energy counters, so concurrent
// execution only yields meaningful absolute energies when the meter's
// domains don't overlap across trials (mock sweeps, per-core counters, or
// functional/CI runs). The core lease keeps the *performance* side honest:
// no two trials contend for the same execution resources.
//
// Results are fanned into the sink under a mutex, one Consume at a time, so
// per-configuration store flushing, --resume keys, and SIGINT durability
// hold at any parallelism. A trial that fails — a kernel meter error, a
// crashed or timed-out worker child, a workload that exits wrongly — is
// recorded as a *TrialError and the sweep continues; the joined failures
// come back as the final error, so one bad trial loses one trial, not the
// campaign. A pinned trial wider than the whole lease table is rejected
// the same way before dispatch: it could never be allocated, so waiting
// for it would stall the sweep forever, and running it anyway would stack
// its threads onto shared CPUs.
type Scheduler struct {
	// Executor runs each trial; required. Use Subprocess for trials that
	// must not share the coordinator's address space.
	Executor Executor
	// Parallel is the maximum number of concurrently running trials;
	// values below 1 mean serial.
	Parallel int
	// Log, when non-nil, receives one progress line per finished trial.
	Log func(format string, args ...any)
	// groups overrides the sysfs CPU topology in tests; nil means the
	// machine's own coreGroups().
	groups [][]int
}

// trialUnits is the number of worker threads the trial runs (co-runs
// interleave one unit per spec per thread).
func trialUnits(t Trial) int {
	units := t.Threads
	if t.IsCoRun() {
		units *= 2
	}
	return units
}

// UniqueCPUs returns the sorted distinct CPU ids of an assignment: the CPU
// set a trial leases, or an external workload's child is confined to.
func UniqueCPUs(cpus []int) []int {
	seen := map[int]bool{}
	var uniq []int
	for _, c := range cpus {
		if !seen[c] {
			seen[c] = true
			uniq = append(uniq, c)
		}
	}
	sort.Ints(uniq)
	return uniq
}

// RunPlan sweeps the trials, dispatching any pending trial that can be
// allocated onto currently free cores whenever a parallelism slot is open
// (not strictly in plan order — a blocked compact trial does not starve an
// independent scatter trial). It returns after every started trial has
// finished. The error joins the context error (if interrupted), the first
// sink error (if any), and one *TrialError per failed trial. Every result
// consumed before a sink failure is already durable in the sink; results
// finishing after a sink failure are reported as discarded-trial errors
// rather than pushed into the broken sink.
func (s *Scheduler) RunPlan(ctx context.Context, trials []Trial, sink ResultSink) error {
	if s.Executor == nil {
		return fmt.Errorf("harness: scheduler has no executor")
	}
	if sink == nil {
		sink = SinkFunc(func(Result) error { return nil })
	}
	par := s.Parallel
	if par < 1 {
		par = 1
	}
	groups := s.groups
	if groups == nil {
		groups = coreGroups()
	}
	totalCPUs := 0
	for _, g := range groups {
		totalCPUs += len(g)
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		leased    = map[int]bool{}
		running   = 0
		finished  = 0
		trialErrs []error
		sinkErr   error
	)
	total := len(trials)

	// A pinned trial wider than the whole lease table can never be
	// allocated: no amount of waiting frees CPUs that don't exist. Reject
	// such trials up front as per-trial failures so the sweep proceeds
	// instead of degrading their placement (or stalling behind them).
	var pending []Trial
	for _, t := range trials {
		if t.Placement != PlaceNone && totalCPUs > 0 && trialUnits(t) > totalCPUs {
			finished++
			trialErrs = append(trialErrs, &TrialError{Trial: t, Err: fmt.Errorf(
				"harness: placement %s needs %d CPUs but only %d are leasable: the trial can never be scheduled",
				t.Placement, trialUnits(t), totalCPUs)})
			if s.Log != nil {
				s.Log("[%d/%d] %-20s threads=%d placement=%-7s REJECTED: needs %d CPUs, machine leases %d",
					finished, total, t.Name(), t.Threads, t.Placement, trialUnits(t), totalCPUs)
			}
			continue
		}
		pending = append(pending, t)
	}

	// A context cancellation must wake the dispatch loop out of cond.Wait
	// so it stops launching and drains the in-flight trials (whose
	// executors observe the same ctx and return promptly).
	stopWatch := context.AfterFunc(ctx, func() {
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	})
	defer stopWatch()

	// allocate places a pinned trial onto the cores that are entirely free
	// right now: the placement walk runs over just those cores, so the
	// trial keeps its compact/scatter semantics without colliding with any
	// in-flight trial's CPUs. It must see every CPU it needs (trials wider
	// than the machine were rejected above); with fewer free it waits
	// rather than degrade the placement. Returns the per-unit assignment
	// and whether allocation succeeded. Callers hold mu.
	allocate := func(t Trial) ([]int, bool) {
		if t.Placement == PlaceNone || totalCPUs == 0 {
			// Unpinned, or no usable topology: nothing to lease — the
			// executor falls back to its own placement walk.
			return nil, true
		}
		units := trialUnits(t)
		var freeGroups [][]int
		freeCPUs := 0
		for _, g := range groups {
			free := true
			for _, c := range g {
				if leased[c] {
					free = false
					break
				}
			}
			if free {
				freeGroups = append(freeGroups, g)
				freeCPUs += len(g)
			}
		}
		if freeCPUs < units {
			return nil, false
		}
		return assignFromGroups(t.Placement, units, freeGroups), true
	}

	launch := func(t Trial, assignment []int) {
		t.CPUs = assignment
		lease := UniqueCPUs(assignment)
		for _, c := range lease {
			leased[c] = true
		}
		running++
		go func() {
			res, err := s.Executor.Execute(ctx, t)
			mu.Lock()
			defer mu.Unlock()
			for _, c := range lease {
				delete(leased, c)
			}
			running--
			finished++
			switch {
			case err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()):
				// A sweep-level cancellation (SIGINT, caller deadline)
				// reaches every in-flight trial; reporting it once via the
				// joined ctx error is enough — N per-trial "failures" would
				// misattribute the user's own interrupt to the trials.
			case err != nil:
				trialErrs = append(trialErrs, &TrialError{Trial: t, Err: err})
				if s.Log != nil {
					s.Log("[%d/%d] %-20s threads=%d placement=%-7s FAILED: %v",
						finished, total, t.Name(), t.Threads, t.Placement, err)
				}
			case sinkErr != nil:
				// The sink already failed: pushing more results into it
				// would violate its abort contract, so this measurement is
				// lost — record that loss per trial instead of dropping it
				// silently.
				trialErrs = append(trialErrs, &TrialError{Trial: t,
					Err: fmt.Errorf("harness: result discarded: sink failed before this trial finished")})
				if s.Log != nil {
					s.Log("[%d/%d] %-20s threads=%d placement=%-7s DISCARDED: sink failed earlier",
						finished, total, t.Name(), t.Threads, t.Placement)
				}
			default:
				// The fan-in point: one Consume at a time, under the same
				// mutex as the lease table, so sinks see the serial
				// contract they were written against.
				if err := sink.Consume(res); err != nil {
					sinkErr = fmt.Errorf("harness: sink: %w", err)
				} else if s.Log != nil {
					logTrialResult(s.Log, finished, total, res)
				}
			}
			cond.Broadcast()
		}()
	}

	mu.Lock()
	for {
		if (ctx.Err() != nil || sinkErr != nil) && running == 0 {
			break // stop dispatching; in-flight trials have drained
		}
		if len(pending) == 0 && running == 0 {
			break // swept everything
		}
		launched := false
		if ctx.Err() == nil && sinkErr == nil && running < par {
			for i, t := range pending {
				if assignment, ok := allocate(t); ok {
					pending = append(pending[:i], pending[i+1:]...)
					launch(t, assignment)
					launched = true
					break
				}
			}
		}
		if launched {
			continue // try to fill remaining slots before sleeping
		}
		cond.Wait()
	}
	mu.Unlock()

	var errs []error
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if sinkErr != nil {
		errs = append(errs, sinkErr)
	}
	errs = append(errs, trialErrs...)
	return errors.Join(errs...)
}
