package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// windowPerCPU is how many elements a window holds per CPU: enough that the
// last element of a window leaves the other CPUs idle only briefly, few
// enough that a window of store records stays a small share of a process's
// memory.
const windowPerCPU = 32

// Window returns the number of elements a caller should hand Map at once
// when it processes a stream in windows.
func Window() int { return windowPerCPU * runtime.GOMAXPROCS(0) }

// Map returns f applied to every element of in, in input order, running on
// up to GOMAXPROCS goroutines (the caller's among them). Every call has
// returned before Map does. If any call fails, Map returns the outputs
// before the lowest failing index, so len(out) is that index, together with
// its error; elements past a known failure may be skipped. A one-element
// slice, or GOMAXPROCS=1, runs on the calling goroutine.
func Map[T, U any](in []T, f func(T) (U, error)) ([]U, error) {
	out := make([]U, len(in))
	workers := min(runtime.GOMAXPROCS(0), len(in))
	if workers <= 1 {
		for i, v := range in {
			u, err := f(v)
			if err != nil {
				return out[:i], err
			}
			out[i] = u
		}
		return out, nil
	}

	errs := make([]error, len(in))
	var next atomic.Int64
	// failed is the lowest index known to have failed; indices are handed
	// out in increasing order, so a worker that draws one at or past it can
	// stop.
	var failed atomic.Int64
	failed.Store(int64(len(in)))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= failed.Load() {
				return
			}
			u, err := f(in[i])
			if err != nil {
				errs[i] = err
				for {
					cur := failed.Load()
					if i >= cur || failed.CompareAndSwap(cur, i) {
						break
					}
				}
				continue
			}
			out[i] = u
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if n := failed.Load(); n < int64(len(in)) {
		return out[:n], errs[n]
	}
	return out, nil
}
