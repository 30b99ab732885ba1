package harness

import "energybench/internal/perf"

// CounterEvent aggregates one hardware event over the repetitions a trial
// kept (Measure). TotalMean is the mean over those repetitions of the scaled
// count summed across counted threads; RateHzMean is their mean of the
// summed per-thread rates (each thread's scaled count divided by its own
// enabled time), the activity-factor form the power model consumes.
type CounterEvent struct {
	Event       string  `json:"event"`
	TotalMean   float64 `json:"total_mean"`
	RateHzMean  float64 `json:"rate_hz_mean"`
	Multiplexed bool    `json:"multiplexed,omitempty"`
}

// CounterThread is one counted thread's per-event means, aligned with
// Counters.Events. CPU is the pinned logical CPU (-1 when the trial ran
// unpinned); Group attributes the thread to a co-run side (0 = spec A,
// 1 = spec B). An external workload's child is one thread (CPU -1).
type CounterThread struct {
	CPU        int       `json:"cpu"`
	Group      int       `json:"group,omitempty"`
	TotalMean  []float64 `json:"total_mean"`
	RateHzMean []float64 `json:"rate_hz_mean"`
}

// Counters is the measured activity vector of one trial: scaled event
// counts from every counted thread, aggregated over the same repetitions
// as the energy summaries it explains (the ones Measure kept). It rides on
// Result (and through the worker-trial envelope and the store).
type Counters struct {
	Backend string          `json:"backend"`
	Events  []CounterEvent  `json:"events"`
	Threads []CounterThread `json:"threads"`
	// Reps is how many kept repetitions the means aggregate (EnergyJ.N).
	Reps int `json:"reps"`
}

// EventIndex returns the position of the named event in Events, or -1.
func (c *Counters) EventIndex(name string) int {
	for i, e := range c.Events {
		if e.Event == name {
			return i
		}
	}
	return -1
}

// TotalRateHz returns the summed RateHzMean of the named event over the
// threads of one co-run group (solo trials put every thread in group 0),
// falling back to the event-level aggregate when per-thread data is absent.
// The second return is false when the event is not counted.
func (c *Counters) TotalRateHz(name string, group int) (float64, bool) {
	i := c.EventIndex(name)
	if i < 0 {
		return 0, false
	}
	if len(c.Threads) == 0 {
		if group != 0 {
			return 0, false
		}
		return c.Events[i].RateHzMean, true
	}
	var sum float64
	found := false
	for _, th := range c.Threads {
		if th.Group != group {
			continue
		}
		found = true
		if i < len(th.RateHzMean) {
			sum += th.RateHzMean[i]
		}
	}
	if !found {
		return 0, false
	}
	return sum, true
}

// foldCounters is the one counter aggregate: over the kept repetitions of
// a region laid out like r, each thread's mean scaled counts and rates, and
// each event's sums of those over threads. A rate is a scaled count over its
// own enabled time. counts[k][t] is thread t's counts in repetition k.
func foldCounters(r Region, counts [][]perf.Counts, kept []int) *Counters {
	if len(r.Events) == 0 {
		return nil
	}
	out := &Counters{Backend: r.Backend, Reps: len(kept), Events: make([]CounterEvent, len(r.Events))}
	for i, name := range r.Events {
		out.Events[i].Event = name
	}
	for _, th := range r.Threads {
		th.TotalMean = make([]float64, len(r.Events))
		th.RateHzMean = make([]float64, len(r.Events))
		out.Threads = append(out.Threads, th)
	}
	n := float64(len(kept))
	for _, k := range kept {
		for t, c := range counts[k] {
			th := out.Threads[t]
			for i, v := range c.Values {
				if i >= len(r.Events) {
					break
				}
				th.TotalMean[i] += v.Scaled / n
				if v.TimeEnabledNS > 0 {
					rate := v.Scaled / (float64(v.TimeEnabledNS) / 1e9)
					th.RateHzMean[i] += rate / n
				}
				if v.Multiplexed() {
					out.Events[i].Multiplexed = true
				}
			}
		}
	}
	for _, th := range out.Threads {
		for i := range out.Events {
			out.Events[i].TotalMean += th.TotalMean[i]
			out.Events[i].RateHzMean += th.RateHzMean[i]
		}
	}
	return out
}
