package harness

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"energybench/internal/bench"
	"energybench/internal/meter"
)

// unitSeed is the workspace seed Execute gives worker unit i.
func unitSeed(i int) uint64 { return uint64(i)*0x9e3779b9 + 12345 }

// countingBuild is a build seam that counts the workspaces it builds.
type countingBuild struct {
	mu     sync.Mutex
	builds int
}

func (c *countingBuild) build(s bench.Spec, seed uint64) *bench.Workspace {
	c.mu.Lock()
	c.builds++
	c.mu.Unlock()
	return bench.NewWorkspace(s, seed)
}

func (c *countingBuild) take() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.builds
	c.builds = 0
	return n
}

// cachedSizes counts the cache's entries per working-set size.
func cachedSizes(e *InProcess) map[int]int {
	e.workspaces.mu.Lock()
	defer e.workspaces.mu.Unlock()
	n := map[int]int{}
	for k := range e.workspaces.entries {
		n[k.bytes]++
	}
	return n
}

// sameWorkspace reports whether two workspaces hold equal state, field by
// field, as reflect.DeepEqual would; slices compare as raw bytes, which
// keeps a 32 MB chase buffer cheap to check under -race.
func sameWorkspace(a, b *bench.Workspace) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	raw := func(v reflect.Value) []byte {
		return unsafe.Slice((*byte)(v.UnsafePointer()), v.Len()*int(v.Type().Elem().Size()))
	}
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Slice {
			if fa.IsNil() != fb.IsNil() || !bytes.Equal(raw(fa), raw(fb)) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}

// TestCachedWorkspacesMatchFreshBuilds: for every catalog spec, a trial
// served from the cache gets workspaces equal field by field to fresh
// bench.NewWorkspace builds, its repetitions share one workspace per
// worker, and no kernel writes the shared chase buffer.
func TestCachedWorkspacesMatchFreshBuilds(t *testing.T) {
	for _, spec := range bench.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			fresh := []*bench.Workspace{bench.NewWorkspace(spec, unitSeed(0)), bench.NewWorkspace(spec, unitSeed(1))}
			var mu sync.Mutex
			calls := map[*bench.Workspace]int{}
			mismatched := 0
			kernel := spec.Kernel
			spec.Kernel = func(ws *bench.Workspace, iters int) uint64 {
				mu.Lock()
				if calls[ws] == 0 && !sameWorkspace(ws, fresh[0]) && !sameWorkspace(ws, fresh[1]) {
					mismatched++
				}
				calls[ws]++
				mu.Unlock()
				return kernel(ws, iters)
			}
			var builds countingBuild
			e := &InProcess{Meter: meter.NewMock(42), newWorkspace: builds.build}
			trial := Trial{Spec: spec, Threads: 2, Placement: PlaceNone, Iters: 1000, Warmup: 1, MinReps: 3, MaxReps: 3}
			for run := 0; run < 2; run++ {
				clear(calls)
				if _, err := e.Execute(context.Background(), trial); err != nil {
					t.Fatal(err)
				}
				if len(calls) != 2 {
					t.Fatalf("run %d: kernels saw %d workspaces, want one per worker (2)", run, len(calls))
				}
				for _, n := range calls {
					if n != 4 {
						t.Fatalf("run %d: a workspace ran %d repetitions, want all 4 (warm-up included)", run, n)
					}
				}
			}
			if mismatched > 0 {
				t.Fatalf("%d workspaces differed from a fresh build at a worker's first repetition", mismatched)
			}
			if spec.WorkingSet == 0 {
				return // compute workspaces hold no buffer and are not cached
			}
			if n := builds.take(); n != 2 {
				t.Fatalf("two identical trials built %d workspaces, want 2 (the second hits the cache)", n)
			}
			for i, want := range fresh {
				got := e.workspaces.get(wsKey{spec.WorkingSet, unitSeed(i), -1}, func() *bench.Workspace {
					t.Fatalf("seed %d: the cache lost a workspace", i)
					return nil
				})
				if !sameWorkspace(got, want) {
					t.Fatalf("seed %d: the cached workspace changed after its kernels ran", i)
				}
			}
		})
	}
}

// TestWorkspaceCacheBoundedByWidestTrial: after a sweep over several
// working-set sizes and thread counts, each size holds at most as many
// workspaces as its widest trial used, and the same unpinned sweep again
// builds nothing. Pinned trials on other CPUs evict the least recently
// used workspaces of their size.
func TestWorkspaceCacheBoundedByWidestTrial(t *testing.T) {
	small := bench.Spec{Name: "chase-4k", Component: bench.CompL1, WorkingSet: 4 << 10, Iters: 1000, Kernel: bench.KernelChase}
	large := bench.Spec{Name: "chase-8k", Component: bench.CompL2, WorkingSet: 8 << 10, Iters: 1000, Kernel: bench.KernelChase}
	mixed := bench.Spec{Name: "mixed-8k", Component: bench.CompMixed, WorkingSet: 8 << 10, Iters: 1000, Kernel: bench.KernelMixed}
	compute := bench.Spec{Name: "int", Component: bench.CompIntALU, Iters: 1000, Kernel: bench.KernelIntALU}
	var trials []Trial
	for _, spec := range []bench.Spec{small, large, mixed, compute} {
		for _, threads := range []int{3, 1, 2} {
			trials = append(trials, Trial{Spec: spec, Threads: threads, Placement: PlaceNone, Iters: 1000, MinReps: 2, MaxReps: 2})
		}
	}
	trials = append(trials, Trial{Spec: large, SpecB: &mixed, Threads: 2, Placement: PlaceNone, Iters: 1000, ItersB: 1000, MinReps: 2, MaxReps: 2})

	var builds countingBuild
	e := &InProcess{Meter: meter.NewMock(42), newWorkspace: builds.build, pin: fakePin}
	sweepTrials := func() {
		t.Helper()
		for _, tr := range trials {
			if _, err := e.Execute(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweepTrials()
	// 4 KB: three solo threads. 8 KB: the 2+2 co-run's four units, which
	// reuse the solo sweeps' first three workspaces and add one.
	wantWidest := map[int]int{small.WorkingSet: 3, large.WorkingSet: 4}
	if got := e.workspaces.widest; !reflect.DeepEqual(got, wantWidest) {
		t.Fatalf("widest trial per size = %v, want %v", got, wantWidest)
	}
	if got := cachedSizes(e); !reflect.DeepEqual(got, wantWidest) {
		t.Fatalf("cached workspaces per size = %v, want %v", got, wantWidest)
	}
	// Compute workspaces are built on every trial's workers, never cached.
	computeBuilds := 3 + 1 + 2
	if n := builds.take(); n != 3+4+computeBuilds {
		t.Fatalf("first sweep built %d workspaces, want %d", n, 3+4+computeBuilds)
	}
	sweepTrials()
	if n := builds.take(); n != computeBuilds {
		t.Fatalf("repeating the sweep built %d chase workspaces, want none", n-computeBuilds)
	}

	// Two pinned 3-thread trials on disjoint CPUs: each evicts the other's
	// workspaces of that size, never more than the bound.
	onCPUs := func(cpus ...int) Trial {
		return Trial{Spec: small, Threads: 3, Placement: PlaceCompact, CPUs: cpus, Iters: 1000, MinReps: 1, MaxReps: 1}
	}
	for i, step := range []struct {
		trial  Trial
		builds int
	}{
		{onCPUs(0, 1, 2), 3},
		{onCPUs(3, 4, 5), 3},
		{onCPUs(3, 4, 5), 0},
		{onCPUs(0, 1, 2), 3},
	} {
		if _, err := e.Execute(context.Background(), step.trial); err != nil {
			t.Fatal(err)
		}
		if n := builds.take(); n != step.builds {
			t.Fatalf("pinned step %d built %d workspaces, want %d", i, n, step.builds)
		}
		if n := cachedSizes(e)[small.WorkingSet]; n != 3 {
			t.Fatalf("pinned step %d: %d cached 4 KB workspaces, want the bound 3", i, n)
		}
	}
}

// TestWorkspaceCacheConcurrentTrials: trials running at once on one
// executor share its cache safely (run under -race) and each still gets
// workspaces of its own.
func TestWorkspaceCacheConcurrentTrials(t *testing.T) {
	spec := bench.Spec{Name: "chase-4k", Component: bench.CompL1, WorkingSet: 4 << 10, Iters: 1000, Kernel: bench.KernelChase}
	e := &InProcess{Meter: meter.NewMock(42)}
	trial := Trial{Spec: spec, Threads: 2, Placement: PlaceNone, Iters: 1000, MinReps: 2, MaxReps: 2}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.Execute(context.Background(), trial)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := cachedSizes(e)[spec.WorkingSet]; n != 2 {
		t.Fatalf("%d cached workspaces, want 2", n)
	}
}

// fakePin accepts any CPU without touching the thread's affinity.
func fakePin(int) (func() error, error) { return func() error { return nil }, nil }
