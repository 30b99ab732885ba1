// Command externstress is a small CPU stress helper used as the bundled
// external workload in CI: it spins integer arithmetic on a configurable
// number of OS threads for a fixed wall-clock duration, then exits 0. The
// thread count comes from the THREADS environment variable (the extern
// executor's swept axis), so one binary covers the whole threads grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	ms := flag.Int("ms", 200, "how long to spin, in milliseconds")
	flag.Parse()
	if *ms <= 0 {
		fmt.Fprintln(os.Stderr, "externstress: -ms must be positive")
		os.Exit(2)
	}
	threads := 1
	if v := os.Getenv("THREADS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "externstress: THREADS=%q is not a positive integer\n", v)
			os.Exit(2)
		}
		threads = n
	}
	deadline := time.Now().Add(time.Duration(*ms) * time.Millisecond)
	var sink atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			// Lock each spinner to its own OS thread, so THREADS spinners
			// are THREADS busy threads, each counted by the inherited
			// counter session the harness opens on the process.
			runtime.LockOSThread()
			acc := seed + 1
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<14; j++ {
					acc = acc*6364136223846793005 + 1442695040888963407
				}
			}
			sink.Add(acc)
		}(uint64(i))
	}
	wg.Wait()
	// Print the accumulator so the arithmetic cannot be optimized away.
	fmt.Println(sink.Load())
}
