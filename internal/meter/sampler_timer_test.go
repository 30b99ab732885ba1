package meter

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestSamplerTimerSchedule drives the sampler's own timer on the mock's
// wall clock (run it under -race). Start polls the counter baseline before
// it returns; tick k (from 0) lands no earlier than k+1 whole intervals
// after Start, since a tick that overran its successor skips it instead of
// bunching up; Stop's final point closes the series; and no tick appends a
// point after Stop has returned.
func TestSamplerTimerSchedule(t *testing.T) {
	const iv = 2 * time.Millisecond
	m := NewMock(42)
	var polls atomic.Int64
	s := &Sampler{
		Meter:    m,
		Interval: iv,
		Events:   []string{"instructions"},
		Counts: func() ([]float64, error) {
			return []float64{float64(polls.Add(1))}, nil
		},
	}
	anchor, err := m.Read()
	if err != nil {
		t.Fatal(err)
	}
	sp := s.Start(anchor)
	if n := polls.Load(); n != 1 {
		t.Fatalf("Start returned after %d counter polls, want the baseline's 1", n)
	}
	points := func() int {
		sp.mu.Lock()
		defer sp.mu.Unlock()
		return len(sp.series.Points)
	}
	for deadline := time.Now().Add(5 * time.Second); points() < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d tick points after 5 s at a %v interval, want 3", points(), iv)
		}
		time.Sleep(iv / 2)
	}
	series, err := sp.Stop()
	if err != nil {
		t.Fatal(err)
	}
	ticks := series.Points[:len(series.Points)-1]
	for k, pt := range ticks {
		if due := float64(k+1) * iv.Seconds(); pt.TS < due {
			t.Errorf("tick %d at %.6f s, want no earlier than %.6f s (%d whole intervals)", k, pt.TS, due, k+1)
		}
		if len(pt.Counts) != 1 || pt.Counts[0] != 1 {
			t.Errorf("tick %d counts = %v, want [1] (one poll since the previous point)", k, pt.Counts)
		}
	}
	if final, last := series.Points[len(series.Points)-1], ticks[len(ticks)-1]; final.TS < last.TS {
		t.Errorf("final point at %.6f s, before the last tick at %.6f s", final.TS, last.TS)
	}

	time.Sleep(5 * iv)
	if n := points(); n != len(series.Points) {
		t.Errorf("series grew from %d to %d points after Stop", len(series.Points), n)
	}
}
