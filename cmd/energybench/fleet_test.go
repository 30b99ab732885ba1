package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"energybench/internal/campaign"
	"energybench/internal/extwork"
	"energybench/internal/fleet"
	"energybench/internal/harness"
)

func ptr[T any](v T) *T { return &v }

// discard is a sink that keeps nothing.
var discard = harness.SinkFunc(func(harness.Result) error { return nil })

// allocatedBy reports the heap bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	f()
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - before
}

// TestBatchRunnerKeepsKernelStack: the agent's batch runner keeps its meter
// and kernel executor from one batch to the next while the execution
// environment stays the same, so the chase-l3 workspace the first batch
// builds serves the second. Going idle, or a batch with another
// environment, builds a new stack. An extern workload's build step still
// runs once per batch. A workspace build is seen as its 4 MiB chase buffer
// in the heap bytes the batch allocates; the rest of a batch allocates far
// less.
func TestBatchRunnerKeepsKernelStack(t *testing.T) {
	sh, ok := lookCmd(t, "sh"), lookCmd(t, "true")
	builds := filepath.Join(t.TempDir(), "builds")
	c := &campaign.Campaign{
		Name:  "keep",
		Meter: "mock",
		Spaces: []campaign.SpaceConfig{{Specs: []string{"chase-l3"}, Threads: []int{1},
			Reps: 1, Warmup: ptr(0), IterScal: ptr(0.0001)}},
		Workloads: []extwork.Workload{{Name: "built", Build: []string{sh, "-c", "echo built >> " + builds},
			Exec: []string{ok}, Threads: []int{1, 2}}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var runner fleet.BatchRunner = localBatchRunner(t.Logf)
	batches := 0
	run := func(exec fleet.ExecConfig) uint64 {
		t.Helper()
		batches++
		b := fleet.Batch{V: fleet.ProtocolVersion, JobID: "j", BatchID: fmt.Sprint("b", batches), Trials: plan, Exec: exec}
		var err error
		n := allocatedBy(func() { err = runner.RunBatch(context.Background(), b, discard) })
		if err != nil {
			t.Fatalf("batch %d: %v", batches, err)
		}
		return n
	}
	const ws = 4 << 20 // one chase-l3 workspace
	exec := fleet.ExecFromCampaign(c)

	if n := run(exec); n < ws {
		t.Fatalf("the first batch allocated %d bytes, less than the chase-l3 workspace it builds", n)
	}
	if n := run(exec); n >= ws {
		t.Errorf("the second batch allocated %d bytes: it built its own workspace instead of the first batch's kept one", n)
	}
	// The agent finds Idle by asserting it on the runner it was given.
	idler, isIdler := runner.(interface{ Idle() })
	if !isIdler {
		t.Fatal("the batch runner cannot be told the agent is idle")
	}
	idler.Idle()
	if n := run(exec); n < ws {
		t.Errorf("the batch after going idle allocated %d bytes: it ran on the dropped stack", n)
	}
	other := exec
	other.MockWatts++
	if n := run(other); n < ws {
		t.Errorf("a batch with another execution environment allocated %d bytes: it ran on the kept stack", n)
	}

	raw, err := os.ReadFile(builds)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(raw), "built\n"); got != batches {
		t.Errorf("the workload's build step ran %d times over %d batches, want once per batch", got, batches)
	}
}

// BenchmarkAgentBatches runs fleet-shaped batches back to back through the
// agent's batch runner: int-alu, chase-l2 and mixed-50 at one and two
// threads, unpinned, two reps and no warm-up, at the fleet-job benchmark
// workload's iteration scales (0.001 to 0.0185 in steps of 0.0005), four
// trials to a batch. One op is one batch; us/batch repeats it in µs.
func BenchmarkAgentBatches(b *testing.B) {
	c := &campaign.Campaign{Name: "agent-batches", Meter: "mock"}
	for i := 0; i < 36; i++ {
		scale := math.Round((0.001+0.0005*float64(i))*1e6) / 1e6
		c.Spaces = append(c.Spaces, campaign.SpaceConfig{Specs: []string{"int-alu", "chase-l2", "mixed-50"},
			Threads: []int{1, 2}, Reps: 2, Warmup: ptr(0), IterScal: ptr(scale)})
	}
	if err := c.Validate(); err != nil {
		b.Fatal(err)
	}
	plan, err := c.Plan()
	if err != nil {
		b.Fatal(err)
	}
	var batches []fleet.Batch
	for i := 0; i < len(plan); i += 4 {
		batches = append(batches, fleet.Batch{V: fleet.ProtocolVersion, JobID: "j", BatchID: fmt.Sprint("b", i/4),
			Trials: plan[i:min(i+4, len(plan))], Exec: fleet.ExecFromCampaign(c)})
	}
	runner := localBatchRunner(func(string, ...any) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.RunBatch(context.Background(), batches[i%len(batches)], discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/batch")
}
