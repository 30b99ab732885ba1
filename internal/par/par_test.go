package par

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// withProcs runs the test body at the given GOMAXPROCS, so the parallel
// path runs even where the machine has one CPU.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestMapKeepsInputOrder(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			in := make([]int, 1000)
			for i := range in {
				in[i] = i
			}
			out, err := Map(in, func(v int) (string, error) {
				if v%7 == 0 {
					runtime.Gosched() // let later elements overtake this one
				}
				return fmt.Sprint(v * v), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(in) {
				t.Fatalf("got %d outputs, want %d", len(out), len(in))
			}
			for i, s := range out {
				if s != fmt.Sprint(i*i) {
					t.Fatalf("out[%d] = %s, want %d", i, s, i*i)
				}
			}
		})
	}
}

// goroutinesAfter polls until the goroutine count falls to want or a second
// passes, and returns the last count: a goroutine that has signalled its
// WaitGroup may take a moment more to exit. Goroutines of an earlier test
// may still be exiting too, so callers compare with "at most".
func goroutinesAfter(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestMapReturnsLowestIndexError: when several elements fail, Map reports
// the first one in input order, whichever goroutine failed first, and the
// outputs before it.
func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			withProcs(t, procs)
			in := make([]int, 200)
			for i := range in {
				in[i] = i
			}
			failing := []int{37, 38, 120, 199}
			for range 20 {
				out, err := Map(in, func(v int) (int, error) {
					if slices.Contains(failing, v) {
						return 0, fmt.Errorf("element %d", v)
					}
					return v + 1, nil
				})
				if err == nil || err.Error() != "element 37" {
					t.Fatalf("err = %v, want element 37's", err)
				}
				if len(out) != 37 {
					t.Fatalf("got %d outputs before the failure, want 37", len(out))
				}
				for i, v := range out {
					if v != i+1 {
						t.Fatalf("out[%d] = %d, want %d", i, v, i+1)
					}
				}
			}
		})
	}
}

func TestMapEmptyAndFirstElementError(t *testing.T) {
	withProcs(t, 4)
	out, err := Map([]int{}, func(int) (int, error) { return 0, errors.New("called") })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v, %v", out, err)
	}
	boom := errors.New("boom")
	out, err = Map([]int{0, 1, 2}, func(v int) (int, error) {
		if v == 0 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) || len(out) != 0 {
		t.Fatalf("first element failing: %v, %v; want no outputs and boom", out, err)
	}
}

// TestMapOneElementRunsInline: a one-element call starts no goroutine, so
// a single-record store append never runs anything beside the caller.
func TestMapOneElementRunsInline(t *testing.T) {
	withProcs(t, 4)
	before := runtime.NumGoroutine()
	var during int
	out, err := Map([]int{5}, func(v int) (int, error) {
		during = runtime.NumGoroutine()
		return v * 2, nil
	})
	if err != nil || len(out) != 1 || out[0] != 10 {
		t.Fatalf("Map = %v, %v", out, err)
	}
	if during > before {
		t.Errorf("goroutines inside f = %d, want %d (no goroutine started)", during, before)
	}
}

// TestMapUsesSeveralGoroutines: above one element and one CPU, f runs on
// goroutines beside the caller, and all of them have exited when Map
// returns.
func TestMapUsesSeveralGoroutines(t *testing.T) {
	withProcs(t, 4)
	before := runtime.NumGoroutine()
	in := make([]int, 64)
	peaks, err := Map(in, func(int) (int, error) {
		runtime.Gosched()
		return runtime.NumGoroutine(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Max(peaks) <= before {
		t.Errorf("goroutines inside f peaked at %d, want more than the %d before the call", slices.Max(peaks), before)
	}
	if after := goroutinesAfter(before); after > before {
		t.Errorf("goroutines after Map = %d, want at most the %d before it", after, before)
	}
}

func TestWindowScalesWithProcs(t *testing.T) {
	withProcs(t, 1)
	one := Window()
	runtime.GOMAXPROCS(3)
	if one < 1 || Window() != 3*one {
		t.Errorf("Window() = %d at 1 proc and %d at 3, want a fixed positive multiple", one, Window())
	}
}
