package bench

import "testing"

func TestCatalogSpecsValid(t *testing.T) {
	specs := Catalog()
	if len(specs) < 6 {
		t.Fatalf("catalog has %d specs, want at least 6", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Kernel == nil || s.Iters <= 0 || s.WorkingSet < 0 {
			t.Errorf("spec %q not runnable: kernel set %v, iters %d, working set %d; want a name, a kernel, positive iters and a non-negative working set",
				s.Name, s.Kernel != nil, s.Iters, s.WorkingSet)
		}
		if seen[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestCatalogCoversMemoryHierarchy(t *testing.T) {
	want := []Component{CompIntALU, CompFPU, CompL1, CompL2, CompL3, CompDRAM, CompMixed}
	have := map[Component]bool{}
	for _, s := range Catalog() {
		have[s.Component] = true
	}
	for _, c := range want {
		if !have[c] {
			t.Errorf("catalog missing a spec for component %q", c)
		}
	}
}

func TestLookup(t *testing.T) {
	s, err := Lookup("chase-l1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Component != CompL1 {
		t.Errorf("chase-l1 component = %q, want %q", s.Component, CompL1)
	}
	if _, err := Lookup("no-such-spec"); err == nil {
		t.Error("want error for unknown spec, got nil")
	}
}

// TestCyclePermutationIsSingleCycle verifies the chase buffer is one cycle
// covering every element — the property that makes the pointer chase touch
// the whole working set with unpredictable addresses.
func TestCyclePermutationIsSingleCycle(t *testing.T) {
	for _, n := range []int{2, 3, 64, 1024} {
		p := cyclePermutation(n, 42)
		visited := make([]bool, n)
		i := uint32(0)
		for steps := 0; steps < n; steps++ {
			if visited[i] {
				t.Fatalf("n=%d: revisited %d after %d steps (not a single cycle)", n, i, steps)
			}
			visited[i] = true
			i = p[i]
		}
		if i != 0 {
			t.Errorf("n=%d: cycle did not return to start (at %d)", n, i)
		}
	}
}

func TestCyclePermutationDeterministic(t *testing.T) {
	a := cyclePermutation(256, 7)
	b := cyclePermutation(256, 7)
	c := cyclePermutation(256, 8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical permutations")
	}
}

func TestNewWorkspaceSizing(t *testing.T) {
	s := Spec{Name: "x", Iters: 1, Kernel: KernelChase, WorkingSet: 4096}
	ws := NewWorkspace(s, 1)
	if got := len(ws.chase) * 4; got != 4096 {
		t.Errorf("workspace footprint = %d bytes, want 4096", got)
	}
	compute := Spec{Name: "y", Iters: 1, Kernel: KernelIntALU}
	if ws := NewWorkspace(compute, 1); ws.chase != nil {
		t.Error("pure-compute workspace should not allocate a chase buffer")
	}
}

func TestKernelsRunAndProduceWork(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ws := NewWorkspace(spec, 99)
			v := spec.Kernel(ws, 1024)
			// The accumulator itself is arbitrary; the point is the call
			// completes and the result can be sunk.
			Sink += v
		})
	}
}
