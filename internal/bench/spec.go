package bench

// Component identifies the microarchitectural resource a kernel stresses.
type Component string

const (
	CompIntALU Component = "int-alu" // integer execution units
	CompFPU    Component = "fpu"     // floating-point units
	CompL1     Component = "l1"      // L1 data cache
	CompL2     Component = "l2"      // L2 cache
	CompL3     Component = "l3"      // last-level cache
	CompDRAM   Component = "dram"    // main memory
	CompMixed  Component = "mixed"   // compute/memory mix
)

// Kernel executes a measured inner loop over a prepared workspace and returns
// an accumulator value that callers must sink to defeat dead-code elimination.
type Kernel func(ws *Workspace, iters int) uint64

// Spec fully describes one micro-benchmark: which kernel to run, the working
// set it touches, and how tightly the measured loop is unrolled. Thread count
// and placement are exploration-space dimensions owned by the harness, not
// the spec.
type Spec struct {
	Name       string    `json:"name"`
	Component  Component `json:"component"`
	WorkingSet int       `json:"working_set_bytes"` // bytes per thread; 0 for pure compute
	Unroll     int       `json:"unroll"`            // unroll factor of the measured loop
	Iters      int       `json:"iters"`             // default inner iterations per repetition
	Desc       string    `json:"desc,omitempty"`
	Kernel     Kernel    `json:"-"`
}

// Workspace holds per-thread mutable state for a kernel. Each worker thread
// owns its own Workspace so threads never share cache lines.
type Workspace struct {
	// chase is a random-cycle permutation: chase[i] is the index of the next
	// element, forming a single cycle through the whole slice. Pointer-chase
	// kernels serialize loads through it so each load's address depends on
	// the previous load's value.
	chase []uint32
	pos   uint32
	// acc seeds the compute chains.
	acc uint64
	fac float64
}

// NewWorkspace prepares the buffers a spec's kernel needs. The chase buffer
// is sized to the spec's working set (4 bytes per element) and permuted into
// a single cycle so hardware prefetchers cannot predict the access stream.
func NewWorkspace(s Spec, seed uint64) *Workspace {
	ws := &Workspace{acc: seed | 1, fac: 1.0000001}
	if s.WorkingSet > 0 {
		n := s.WorkingSet / 4
		if n < 2 {
			n = 2
		}
		ws.chase = cyclePermutation(n, seed)
	}
	return ws
}

// cyclePermutation builds a uniform random single-cycle permutation of
// [0,n) using Sattolo's algorithm with a small deterministic xorshift PRNG,
// so workspaces are reproducible for a given seed.
func cyclePermutation(n int, seed uint64) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	state := seed*2862933555777941757 + 3037000493
	rnd := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	// Sattolo: swap each element with a strictly earlier one, yielding a
	// permutation that is one big cycle.
	for i := n - 1; i > 0; i-- {
		j := rnd(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
