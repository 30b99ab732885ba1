package harness

import (
	"context"
	"sync"
	"syscall"
	"testing"

	"energybench/internal/bench"
	"energybench/internal/meter"
)

// threadEvent is one step of a trial's set-up, stamped with the OS thread
// it ran on: a pin (cpu), a workspace build (seed) or a meter read.
type threadEvent struct {
	kind string
	tid  int
	arg  uint64
}

type eventLog struct {
	mu     sync.Mutex
	events []threadEvent
}

func (l *eventLog) add(kind string, arg uint64) {
	l.mu.Lock()
	l.events = append(l.events, threadEvent{kind, syscall.Gettid(), arg})
	l.mu.Unlock()
}

// loggedMeter records each Read in the event log.
type loggedMeter struct {
	meter.EnergyMeter
	log *eventLog
}

func (m loggedMeter) Read() (meter.Reading, error) {
	m.log.add("read", 0)
	return m.EnergyMeter.Read()
}

// TestWorkspacesBuiltOnPinnedWorkers: through the pin seam, each unit's
// workspace is built on its own worker's OS thread, after that thread was
// pinned to the unit's CPU and before the trial's opening meter read.
func TestWorkspacesBuiltOnPinnedWorkers(t *testing.T) {
	var log eventLog
	compute := bench.Spec{Name: "int", Component: bench.CompIntALU, Iters: 1000, Kernel: bench.KernelIntALU}
	chase := bench.Spec{Name: "chase-4k", Component: bench.CompL1, WorkingSet: 4 << 10, Iters: 1000, Kernel: bench.KernelChase}
	e := &InProcess{
		Meter: loggedMeter{meter.NewMock(42), &log},
		pin: func(cpu int) (func() error, error) {
			log.add("pin", uint64(cpu))
			return func() error { return nil }, nil
		},
		newWorkspace: func(s bench.Spec, seed uint64) *bench.Workspace {
			log.add("build", seed)
			return bench.NewWorkspace(s, seed)
		},
	}
	// A 2+2 co-run: units A,B,A,B with seeds 0..3 on CPUs 7, 5, 3, 1.
	cpus := []int{7, 5, 3, 1}
	trial := Trial{Spec: chase, SpecB: &compute, Threads: 2, Placement: PlaceCompact, CPUs: cpus,
		Iters: 1000, ItersB: 1000, Warmup: 1, MinReps: 2, MaxReps: 2}
	if _, err := e.Execute(context.Background(), trial); err != nil {
		t.Fatal(err)
	}

	cpuOfSeed := map[uint64]uint64{}
	for i, cpu := range cpus {
		cpuOfSeed[unitSeed(i)] = uint64(cpu)
	}
	pinnedTo := map[int]uint64{} // tid → the CPU it was last pinned to
	built := 0
	for _, ev := range log.events {
		switch ev.kind {
		case "pin":
			pinnedTo[ev.tid] = ev.arg
		case "build":
			want, ok := cpuOfSeed[ev.arg]
			if !ok {
				t.Fatalf("built a workspace for unknown seed %d", ev.arg)
			}
			got, pinned := pinnedTo[ev.tid]
			if !pinned || got != want {
				t.Errorf("seed %d built on thread %d (pinned: %v, cpu %d), want the worker pinned to cpu %d", ev.arg, ev.tid, pinned, got, want)
			}
			built++
		case "read":
			if built != len(cpus) {
				t.Fatalf("meter read after %d of %d workspace builds", built, len(cpus))
			}
		}
	}
	if built != len(cpus) {
		t.Fatalf("%d workspace builds, want one per unit (%d), all in the first repetition", built, len(cpus))
	}
}
