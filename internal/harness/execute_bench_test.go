package harness

import (
	"context"
	"fmt"
	"testing"
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// overheadScales are the iteration scales of perfbench's sweep-inproc
// workload (0.001 in steps of 0.0005), so the catalog cases run kernels of
// the length that sweep times.
var overheadScales = func() []float64 {
	out := make([]float64, 12)
	for i := range out {
		out[i] = 0.001 + float64(i)*0.0005
	}
	return out
}()

// overheadSpecs are the catalog kernels sweep-inproc times.
var overheadSpecs = []string{"int-alu", "fp-mac", "chase-l1", "chase-l2", "mixed-50"}

// BenchmarkInProcessOverhead times InProcess.Execute over whole trials (one
// warm-up and three measured repetitions on the mock meter): one and two
// worker units, each plain (unpinned and uncounted, the fleet-job shape),
// pinned compact, and unpinned with mock counters and 1 ms sampling (the
// sweep-inproc shape), with kernels of one iteration (pure harness cost)
// and as catalog specs at sweep-inproc's iteration scales. Besides ns/op it
// reports window-us/op, the trial's three meter windows summed: the part of
// the harness cost that lands inside measured windows. Run it with
// `make bench-harness`.
func BenchmarkInProcessOverhead(b *testing.B) {
	one := bench.Spec{Name: "iters-1", Component: bench.CompIntALU, Iters: 1, Kernel: bench.KernelIntALU}
	var catalog []Trial
	for _, scale := range overheadScales {
		for _, name := range overheadSpecs {
			spec, err := bench.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			spec.Iters = max(int(float64(spec.Iters)*scale), 1)
			catalog = append(catalog, Trial{Spec: spec, Iters: spec.Iters})
		}
	}
	for _, units := range []int{1, 2} {
		for _, shape := range []string{"plain", "pinned", "counted-sampled"} {
			for _, kernels := range []string{"iters-1", "catalog"} {
				b.Run(fmt.Sprintf("units=%d/%s/%s", units, shape, kernels), func(b *testing.B) {
					trials := []Trial{{Spec: one, Iters: 1}}
					if kernels == "catalog" {
						trials = catalog
					}
					for i := range trials {
						tr := &trials[i]
						tr.Threads, tr.Placement = units, PlaceNone
						tr.Warmup, tr.MinReps, tr.MaxReps = 1, 3, 3
						tr.Counters, tr.SampleInterval = nil, 0
						if shape == "pinned" {
							tr.Placement = PlaceCompact
						}
						if shape == "counted-sampled" {
							tr.Counters = &perf.Spec{Backend: perf.BackendMock, Events: perf.DefaultEvents()}
							tr.SampleInterval = time.Millisecond
						}
					}
					benchmarkExecute(b, trials)
				})
			}
		}
	}
}

// benchmarkExecute runs the trials round-robin, one per op, on one
// executor whose workspace cache is warmed first, as a sweep's would be.
func benchmarkExecute(b *testing.B, trials []Trial) {
	e := &InProcess{Meter: meter.NewMock(42)}
	ctx := context.Background()
	for _, tr := range trials {
		if _, err := e.Execute(ctx, tr); err != nil {
			b.Fatal(err)
		}
	}
	var window float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(ctx, trials[i%len(trials)])
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Samples {
			window += s.MeterTimeS
		}
	}
	b.ReportMetric(window/float64(b.N)*1e6, "window-us/op")
}
