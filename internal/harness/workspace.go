package harness

import (
	"sync"

	"energybench/internal/bench"
)

// wsKey identifies one cached workspace. A workspace depends only on its
// spec's working set and its seed (bench.NewWorkspace), so chase-l2 and
// mixed-50 share their 256 KB permutations. The CPU is part of the key so
// that a pinned worker chases pages it touched first itself; an unpinned
// worker uses -1.
type wsKey struct {
	bytes int
	seed  uint64
	cpu   int
}

type wsEntry struct {
	ws   *bench.Workspace // as built; handed out only by copy
	used uint64           // wsCache.clock at the last hand-out
}

// wsCache keeps the workspaces an InProcess executor built, for as long as
// the executor lives: one run, one worker child, or a fleet agent's
// consecutive batches under one execution environment, until the agent
// goes idle. Only
// chase workspaces are kept; a compute workspace has no buffer to save.
// For each working-set size it holds at most as many workspaces as the
// widest trial so far used at that size, and evicts the least recently
// used beyond that, so a sweep builds each permutation once without a
// memory budget to tune. Its zero value is empty and ready.
type wsCache struct {
	mu      sync.Mutex
	entries map[wsKey]*wsEntry
	widest  map[int]int // working-set bytes → most units one trial used
	clock   uint64
}

// widen raises each working-set size's bound to at least the number of
// the trial's units that use it, before any of them asks for a workspace,
// so a trial never evicts its own.
func (c *wsCache) widen(units []workUnit) {
	n := map[int]int{}
	for _, u := range units {
		if u.spec.WorkingSet > 0 {
			n[u.spec.WorkingSet]++
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.widest == nil {
		c.widest = map[int]int{}
	}
	for bytes, k := range n {
		c.widest[bytes] = max(c.widest[bytes], k)
	}
}

// get returns a copy of the workspace cached under k, building and caching
// it on a miss. The copy starts from exactly the state build returned and
// shares only the read-only chase buffer, so a kernel's moving chase
// position never leaks into another trial.
func (c *wsCache) get(k wsKey, build func() *bench.Workspace) *bench.Workspace {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.clock++
		e.used = c.clock
	}
	c.mu.Unlock()
	if !ok {
		// Built outside the lock so a trial's workers build in parallel.
		e = &wsEntry{ws: build()}
		c.mu.Lock()
		if c.entries == nil {
			c.entries = map[wsKey]*wsEntry{}
		}
		c.clock++
		e.used = c.clock
		c.entries[k] = e
		c.evict(k.bytes)
		c.mu.Unlock()
	}
	ws := *e.ws
	return &ws
}

// evict drops the least recently used workspaces of one working-set size
// until the size is within its bound. The caller holds c.mu.
func (c *wsCache) evict(bytes int) {
	for {
		var lru wsKey
		var oldest *wsEntry
		n := 0
		for k, e := range c.entries {
			if k.bytes != bytes {
				continue
			}
			n++
			if oldest == nil || e.used < oldest.used {
				lru, oldest = k, e
			}
		}
		if n <= c.widest[bytes] {
			return
		}
		delete(c.entries, lru)
	}
}

// workspace returns unit u's workspace for its worker on cpu (-1 when
// unpinned), building it on the calling thread when the cache misses.
func (e *InProcess) workspace(u workUnit, cpu int) *bench.Workspace {
	build := e.newWorkspace
	if build == nil {
		build = bench.NewWorkspace
	}
	if u.spec.WorkingSet <= 0 {
		return build(u.spec, u.seed)
	}
	return e.workspaces.get(wsKey{u.spec.WorkingSet, u.seed, cpu}, func() *bench.Workspace {
		return build(u.spec, u.seed)
	})
}
