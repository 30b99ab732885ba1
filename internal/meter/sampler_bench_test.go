package meter

import (
	"testing"
	"time"
)

// BenchmarkSamplerStartStop times one repetition's sampling overhead on the
// measuring goroutine: Start on an anchor reading and Stop with its final
// point, over the mock meter with a five-event counter source, at a 1 ms
// interval that never ticks within the op. Run it with `make bench-harness`.
func BenchmarkSamplerStartStop(b *testing.B) {
	m := NewMock(42)
	counts := make([]float64, 5)
	s := &Sampler{
		Meter:    m,
		Interval: time.Millisecond,
		Events:   []string{"instructions", "cycles", "l1d-misses", "llc-misses", "stalled-backend"},
		Counts:   func() ([]float64, error) { return counts, nil },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		anchor, err := m.Read()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Start(anchor).Stop(); err != nil {
			b.Fatal(err)
		}
	}
}
