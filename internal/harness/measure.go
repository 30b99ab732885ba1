package harness

import (
	"context"
	"errors"
	"fmt"
	"time"

	"energybench/internal/meter"
	"energybench/internal/perf"
	"energybench/internal/stats"
)

// Region is one repetition's measured work, prepared by an executor: one
// kernel call per unit of a trial's workers, or an external workload's
// child process launched frozen. Measure owns everything around it — the
// meter reads, sampling, and aggregation — so every executor measures
// exactly the same window the same way.
type Region struct {
	// Release runs the prepared work and returns once it has finished
	// (counter sessions stopped). Its error invalidates the repetition;
	// the closing meter read still happens and its error joins this one.
	Release func() error
	// Abort, when non-nil, tears the prepared work down unreleased;
	// Measure calls it instead of Release when the opening meter read
	// fails.
	Abort func()
	// Sessions are the region's counter sessions and Events their event
	// names. With sampling on, the sampler polls every session that can be
	// read without stopping (perf.Poller); nil entries are skipped. The
	// sampler's first poll, before Release, is the series' counter
	// baseline, so a session must report only this repetition's counts.
	Sessions []perf.Session
	Events   []string
	// Measured, when non-nil, sees each measured (non-warm-up) sample
	// before it is kept: executors fold their per-repetition counter
	// counts and co-run wall times in here.
	Measured func(*Sample)
}

// Measure is the measured-region core every executor shares. It hands a
// load-aware meter the trial's nominal activity (Trial.Activity), then runs
// Warmup discarded and up to MaxReps measured repetitions, each around a
// fresh Region from prepare, stopping early once the running CV of the
// energy samples reaches CVTarget after MinReps (the paper's
// repeat-until-stable criterion). The returned Result carries the trial's
// identity, the samples, their summaries, and EDP/EDDP; executors add only
// their counter aggregates. A trial whose budget fails ValidateBudget is
// refused before its first repetition.
func Measure(ctx context.Context, m meter.EnergyMeter, t Trial, prepare func() (Region, error)) (Result, error) {
	if err := t.ValidateBudget(); err != nil {
		return Result{}, fmt.Errorf("harness: %w", err)
	}
	res := t.result(m.Name())
	for _, d := range m.Domains() {
		res.Domains = append(res.Domains, d.Name)
	}
	if la, ok := m.(meter.LoadAware); ok {
		load := map[string]float64{}
		for c, a := range res.Activity() {
			load[string(c)] = a
		}
		la.SetLoad(load)
	}

	var conv stats.Accumulator
	for rep := 0; rep < t.Warmup+t.MaxReps; rep++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		r, err := prepare()
		if err != nil {
			return res, err
		}
		sample, err := measureOnce(m, t.SampleInterval, r)
		if err != nil {
			return res, err
		}
		if rep < t.Warmup {
			continue
		}
		if r.Measured != nil {
			r.Measured(&sample)
		}
		res.Samples = append(res.Samples, sample)
		conv.Push(sample.EnergyJ)
		// Converged means the CV target genuinely cut reps short: at the
		// cap (which includes every fixed-rep run, where min == max) the
		// loop is ending anyway and the label would be noise.
		if len(res.Samples) < t.MaxReps && conv.Converged(t.CVTarget, t.MinReps) {
			res.Converged = true
			break
		}
	}

	summarize := func(pick func(Sample) float64) stats.Summary {
		xs := make([]float64, len(res.Samples))
		for i, s := range res.Samples {
			xs[i] = pick(s)
		}
		if t.MaxCV > 0 {
			return stats.SummarizeRobust(xs, t.MaxCV, 2)
		}
		return stats.Summarize(xs)
	}
	res.EnergyJ = summarize(func(s Sample) float64 { return s.EnergyJ })
	res.TimeS = summarize(func(s Sample) float64 { return s.TimeS })
	res.PowerW = summarize(func(s Sample) float64 { return s.PowerW })
	if t.SpecB != nil {
		ta := summarize(func(s Sample) float64 { return s.TimeAS })
		tb := summarize(func(s Sample) float64 { return s.TimeBS })
		res.TimeA, res.TimeB = &ta, &tb
	}
	res.EDP = res.EnergyJ.Mean * res.TimeS.Mean
	res.EDDP = res.EDP * res.TimeS.Mean
	return res, nil
}

// measureOnce meters one repetition: read the meter, start the sampler
// (anchored on that reading, so its first interval and the energy delta
// share a start point), release the region and wait for it, stop the
// sampler, read again. Every series point therefore falls inside the meter
// window. All of it runs on the calling goroutine, the sampler's baseline
// and final point included, so a region that runs its work on this
// goroutine too (the in-process executor's unit 0) needs no thread
// hand-off between the two reads.
func measureOnce(m meter.EnergyMeter, every time.Duration, r Region) (Sample, error) {
	before, err := m.Read()
	if err != nil {
		if r.Abort != nil {
			r.Abort()
		}
		return Sample{}, err
	}
	var sampling *meter.Sampling
	if every > 0 {
		smp := &meter.Sampler{Meter: m, Interval: every}
		if len(r.Events) > 0 {
			smp.Events = r.Events
			smp.Counts = pollSessions(r.Sessions, len(r.Events))
		}
		sampling = smp.Start(before)
	}
	t0 := time.Now()
	errs := []error{r.Release()}
	elapsed := time.Since(t0).Seconds()
	var series *meter.Series
	if sampling != nil {
		ser, err := sampling.Stop()
		series = &ser
		errs = append(errs, err)
	}
	after, err := m.Read()
	// A region failure (a pin error, a crashed child) must not be masked by
	// a failed closing read, or vice versa: join them all.
	if err := errors.Join(append(errs, err)...); err != nil {
		return Sample{}, err
	}
	domainJ, err := meter.DeltaPerDomain(m, before, after)
	if err != nil {
		return Sample{}, err
	}
	var energy float64
	for _, j := range domainJ {
		energy += j
	}
	s := Sample{EnergyJ: energy, TimeS: elapsed, DomainJ: domainJ, Series: series}
	// The energy delta spans the meter's own before→after window, which
	// includes the reads' latency on both ends; the region's wall clock
	// starts after the first read returns and stops before the second
	// begins. Dividing by the meter window matches numerator and
	// denominator; dividing by the (shorter) region window would
	// overestimate power on every sample. Meters that do not timestamp
	// readings leave the window at zero; fall back to the region clock.
	if w := after.At.Sub(before.At).Seconds(); w > 0 {
		s.MeterTimeS = w
		s.PowerW = energy / w
	} else if elapsed > 0 {
		s.PowerW = energy / elapsed
	}
	return s, nil
}

// pollSessions builds the sampler's cumulative-counts source: each poll sums
// the scaled per-event counts across every session that supports
// non-destructive reads (perf.Poller). Sessions that failed to open, or
// backends without Poll, simply contribute nothing — counter sampling
// degrades instead of failing the trial.
func pollSessions(sessions []perf.Session, events int) func() ([]float64, error) {
	return func() ([]float64, error) {
		out := make([]float64, events)
		for _, s := range sessions {
			p, ok := s.(perf.Poller)
			if !ok {
				continue
			}
			c, err := p.Poll()
			if err != nil {
				return nil, err
			}
			for i, v := range c.Values {
				if i < len(out) {
					out[i] += v.Scaled
				}
			}
		}
		return out, nil
	}
}
