package meter

import (
	"sync"
	"time"
)

// SeriesPoint is one tick of an in-trial sampling series. TS is the point's
// offset in seconds from the series anchor (the trial's before-read
// timestamp); DomainUJ holds the wrap-unwrapped microjoule delta per meter
// domain since the previous point; PowerW is the summed delta divided by the
// inter-reading window. Counts, when counter sampling is enabled, holds the
// per-event deltas of the trial's perf sessions over the same window.
type SeriesPoint struct {
	TS       float64   `json:"t_s"`
	DomainUJ []uint64  `json:"domain_uj"`
	PowerW   float64   `json:"power_w"`
	Counts   []float64 `json:"counts,omitempty"`
}

// Series is one repetition's time-resolved samples. StartAt anchors the
// relative TS offsets to wall-clock time; IntervalS is the requested ticker
// period (actual point spacing comes from the meter's own Reading.At stamps,
// so scheduling jitter never skews per-point power).
type Series struct {
	StartAt   time.Time     `json:"start_at"`
	IntervalS float64       `json:"interval_s"`
	Events    []string      `json:"events,omitempty"`
	Points    []SeriesPoint `json:"points"`
}

// Sampler polls an EnergyMeter (and, optionally, a cumulative counter source)
// on a ticker, producing a Series of per-interval deltas. Counts, when set,
// must return cumulative per-event values that are monotonic within the
// sampled region; the sampler emits deltas between consecutive polls and
// clamps negatives (e.g. a session reset racing the first tick) to zero.
// Its first poll, taken by Start, is the baseline of the first interval.
type Sampler struct {
	Meter    EnergyMeter
	Interval time.Duration
	Counts   func() ([]float64, error)
	Events   []string

	// tick replaces the timer in tests, so each point is driven explicitly
	// instead of by wall-clock time; Stop then takes every delivered
	// tick's point before its final one.
	tick <-chan time.Time
}

// Sampling is one in-flight sampling run started by Sampler.Start. The
// caller takes the baseline and the final point itself; each tick in
// between runs on a goroutine of its own (a timer's, or in tests the one
// draining the tick channel).
type Sampling struct {
	sampler *Sampler
	begin   time.Time

	// mu orders the ticks against Stop and guards the fields below it.
	// A point holds it across its meter read and counter poll, so the
	// ticks, the final point and the caller's own reads around the
	// sampling run never call the meter at once, and no tick appends a
	// point after Stop has taken the final one.
	mu         sync.Mutex
	timer      *time.Timer
	stopped    bool
	prev       Reading
	prevCounts []float64
	series     Series
	err        error

	// stop and done hand the tick channel's goroutine its end, in tests.
	stop, done chan struct{}
}

// Start begins sampling anchored at a reading the caller has already taken
// (the trial's before-read), so the first interval needs no extra meter
// round-trip. It polls the counter baseline on the calling goroutine, so
// the first interval starts at the anchor, not whenever a sampling
// goroutine first runs. Ticks keep a ticker's schedule: one due every
// whole Interval after Start, a tick that overran its successor skipping
// it. Sampling runs until Stop.
func (s *Sampler) Start(anchor Reading) *Sampling {
	sp := &Sampling{
		sampler: s,
		begin:   time.Now(),
		prev:    anchor,
		series: Series{
			StartAt:   anchor.At,
			IntervalS: s.Interval.Seconds(),
			Events:    s.Events,
		},
	}
	if sp.prevCounts, sp.err = sp.pollCounts(); sp.err != nil {
		return sp
	}
	if s.tick != nil {
		sp.stop, sp.done = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sp.done)
			for {
				select {
				case <-sp.stop:
					return
				case <-s.tick:
					sp.tick()
				}
			}
		}()
		return sp
	}
	sp.mu.Lock()
	sp.timer = time.AfterFunc(s.Interval, sp.tick)
	sp.mu.Unlock()
	return sp
}

// Stop ends the sampling run, takes one final point covering the partial
// interval since the last tick, and returns the collected series. The final
// point is read on the calling goroutine, and Stop does not wait for a
// sampling goroutine to run: a tick already taking its point finishes
// first, and a tick that has not started by then adds nothing. The first
// meter or counter error encountered aborts collection and is returned
// here; the points gathered before it remain valid. Stop must be called
// exactly once.
func (sp *Sampling) Stop() (Series, error) {
	if sp.done != nil {
		// A test's tick channel: every tick it delivered is taken first.
		close(sp.stop)
		<-sp.done
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.stopped = true
	if sp.timer != nil {
		sp.timer.Stop()
	}
	if sp.err == nil {
		// Final flush: close the last partial interval so the series
		// covers the whole measured window.
		sp.point()
	}
	return sp.series, sp.err
}

// tick takes one tick's point, unless sampling has stopped or failed, and
// arms the timer for the next whole interval after Start.
func (sp *Sampling) tick() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.stopped || sp.err != nil {
		return
	}
	sp.point()
	if sp.err == nil && sp.timer != nil {
		iv := sp.sampler.Interval
		sp.timer.Reset(iv - time.Since(sp.begin)%iv)
	}
}

// point reads the meter (and counters) once and appends the delta versus
// the previous reading as a new series point, advancing it. Readings that
// do not advance the meter clock are skipped: a zero or negative window
// has no defined power. Callers hold sp.mu.
func (sp *Sampling) point() {
	m := sp.sampler.Meter
	cur, err := m.Read()
	if err != nil {
		sp.err = err
		return
	}
	counts, err := sp.pollCounts()
	if err != nil {
		sp.err = err
		return
	}
	dt := cur.At.Sub(sp.prev.At).Seconds()
	if dt <= 0 {
		return
	}
	deltas, err := deltaMicroJ(m.Name(), m.Domains(), sp.prev, cur)
	if err != nil {
		sp.err = err
		return
	}
	var sumUJ uint64
	for _, d := range deltas {
		sumUJ += d
	}
	pt := SeriesPoint{
		TS:       cur.At.Sub(sp.series.StartAt).Seconds(),
		DomainUJ: deltas,
		PowerW:   float64(sumUJ) / 1e6 / dt,
	}
	if counts != nil && len(counts) == len(sp.prevCounts) {
		pt.Counts = make([]float64, len(counts))
		for i := range counts {
			if d := counts[i] - sp.prevCounts[i]; d > 0 {
				pt.Counts[i] = d
			}
		}
	}
	sp.series.Points = append(sp.series.Points, pt)
	sp.prev = cur
	sp.prevCounts = counts
}

func (sp *Sampling) pollCounts() ([]float64, error) {
	if sp.sampler.Counts == nil {
		return nil, nil
	}
	return sp.sampler.Counts()
}
