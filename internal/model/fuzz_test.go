package model

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"energybench/internal/stats"
)

// encodePowers packs a power series the way FuzzPhases decodes it: eight
// little-endian bytes of float64 bits per point.
func encodePowers(powers ...float64) []byte {
	b := make([]byte, 0, 8*len(powers))
	for _, p := range powers {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return b
}

// FuzzPhases: SegmentPhases and DetectThrottles never panic on any series
// (mismatched lengths, all zeros, NaN, infinite or huge watts); the phases
// tile the points in order; and every reported throttle starts and ends
// on a steep window and loses at least materialFrac of the mean power.
// Points are spaced intervalMS+1 milliseconds apart; mismatch drops the last
// time so the two slices disagree in length.
func FuzzPhases(f *testing.F) {
	flat := make([]float64, 30)
	for i := range flat {
		flat[i] = 40
	}
	glitch := slices.Clone(flat)
	glitch[15] = 20
	ramp, step := slices.Clone(flat), slices.Clone(flat)
	for i := 15; i < 30; i++ {
		ramp[i] = 50 - 2*float64(i-14)
		step[i] = 20
	}
	for _, seed := range [][]float64{flat, glitch, ramp, step, make([]float64, 20), {1e308, -1e308, 1e308, 0, 5, 7}, {math.NaN(), 1, 2, 3, 4, 5}, {3}} {
		f.Add(encodePowers(seed...), uint16(9), false)
	}
	f.Add(encodePowers(step...), uint16(9), true)
	f.Fuzz(func(t *testing.T, data []byte, intervalMS uint16, mismatch bool) {
		powers := make([]float64, len(data)/8)
		times := make([]float64, len(powers))
		for i := range powers {
			powers[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			times[i] = float64(i+1) * (float64(intervalMS) + 1) / 1000
		}
		if mismatch && len(times) > 0 {
			times = times[:len(times)-1]
		}
		phases, throttles := SegmentPhases(times, powers), DetectThrottles(times, powers)
		if len(times) != len(powers) || len(powers) == 0 {
			if phases != nil || throttles != nil {
				t.Fatalf("%d times, %d powers: phases %+v, throttles %+v; want none", len(times), len(powers), phases, throttles)
			}
			return
		}
		lo := 0
		for i, ph := range phases {
			if ph.N < 1 || lo+ph.N > len(powers) || ph.StartS != times[lo] || ph.EndS != times[lo+ph.N-1] {
				t.Fatalf("phase %d %+v does not continue the tiling at point %d of %d", i, ph, lo, len(powers))
			}
			if len(phases) > 1 && ph.N < minSegment {
				t.Fatalf("phase %d has %d points, under minSegment %d", i, ph.N, minSegment)
			}
			lo += ph.N
		}
		if lo != len(powers) {
			t.Fatalf("phases cover %d of %d points", lo, len(powers))
		}
		meanW := math.Abs(stats.Mean(powers))
		for _, th := range throttles {
			first, last := slices.Index(times, th.StartS), slices.Index(times, th.EndS)
			if first < 0 || last-first+1 < throttleWindow+minRun-1 {
				t.Fatalf("throttle %+v spans points %d..%d, under %d windows", th, first, last, minRun)
			}
			for _, w := range []int{first, last - throttleWindow + 1} {
				if s := olsSlope(times[w:w+throttleWindow], powers[w:w+throttleWindow]); !(s < -minSlopeFrac*meanW) {
					t.Fatalf("throttle %+v: window at point %d has slope %v W/s, not steep", th, w, s)
				}
			}
			if drop := powers[first] - powers[last]; th.DropW != drop || !(drop >= materialFrac*meanW) {
				t.Fatalf("throttle %+v: drop %v W, want at least %v W", th, drop, materialFrac*meanW)
			}
		}
	})
}
