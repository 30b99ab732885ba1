package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Placement is a thread-to-CPU assignment policy for the worker threads of
// one benchmark configuration. The CMP/SMT energy trade-off the paper
// studies hinges on exactly this choice: co-scheduling threads on SMT
// siblings of few cores versus spreading them one per physical core.
type Placement string

const (
	// PlaceNone leaves scheduling to the OS (no pinning). Always available;
	// the only policy used in tests and CI.
	PlaceNone Placement = "none"
	// PlaceCompact fills SMT siblings of a core before moving to the next
	// core, minimizing the number of active cores.
	PlaceCompact Placement = "compact"
	// PlaceScatter assigns one thread per physical core before reusing SMT
	// siblings, maximizing per-thread resources.
	PlaceScatter Placement = "scatter"
)

// ParsePlacement validates a placement name.
func ParsePlacement(s string) (Placement, error) {
	switch p := Placement(s); p {
	case PlaceNone, PlaceCompact, PlaceScatter:
		return p, nil
	}
	return "", fmt.Errorf("harness: unknown placement %q (want none|compact|scatter)", s)
}

// CPUAssignment returns the logical-CPU id each of n threads should pin to
// under the placement policy, or nil for PlaceNone (leave scheduling to the
// OS). Topology is read from sysfs when available; otherwise CPUs are
// assumed to be enumerated core-major. The external-workload executor pins
// child processes to the same CPUs a kernel trial's worker threads get.
func CPUAssignment(p Placement, n int) []int {
	if p == PlaceNone || n <= 0 {
		return nil
	}
	return assignFromGroups(p, n, coreGroups())
}

// assignFromGroups orders logical CPUs per the placement policy over the
// given physical-core groups and assigns n threads round-robin over that
// order.
func assignFromGroups(p Placement, n int, cores [][]int) []int {
	var order []int
	switch p {
	case PlaceCompact:
		// Walk cores in order, taking every sibling of a core before the
		// next core.
		for _, siblings := range cores {
			order = append(order, siblings...)
		}
	case PlaceScatter:
		// Round-robin over cores: first sibling of every core, then second
		// siblings, and so on.
		for rank := 0; ; rank++ {
			added := false
			for _, siblings := range cores {
				if rank < len(siblings) {
					order = append(order, siblings[rank])
					added = true
				}
			}
			if !added {
				break
			}
		}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = order[i%len(order)]
	}
	return assign
}

// coreGroups returns logical CPUs grouped by physical core, each group
// sorted, groups ordered by their first CPU. Falls back to one group per
// logical CPU when the sysfs topology is unreadable (containers, non-Linux).
func coreGroups() [][]int {
	groups := sysfsCoreGroups("/sys/devices/system/cpu")
	if len(groups) > 0 {
		return groups
	}
	n := runtime.NumCPU()
	groups = make([][]int, n)
	for i := 0; i < n; i++ {
		groups[i] = []int{i}
	}
	return groups
}

func sysfsCoreGroups(root string) [][]int {
	seen := map[int]bool{}
	var groups [][]int
	for _, cpu := range onlineCPUs(root) {
		if seen[cpu] {
			continue
		}
		b, err := os.ReadFile(fmt.Sprintf("%s/cpu%d/topology/thread_siblings_list", root, cpu))
		if err != nil {
			return nil
		}
		siblings, err := parseCPUList(strings.TrimSpace(string(b)))
		if err != nil || len(siblings) == 0 {
			return nil
		}
		for _, s := range siblings {
			seen[s] = true
		}
		groups = append(groups, siblings)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// onlineCPUs returns the logical CPUs this process may actually run on:
// the intersection of the online CPU list and the process's affinity mask.
// CPU ids can be sparse (offline CPUs, cgroup cpusets like "8-11"), so
// enumerating 0..NumCPU()-1 would pin to CPUs outside the cpuset and make
// sched_setaffinity fail with EINVAL.
func onlineCPUs(root string) []int {
	b, err := os.ReadFile(filepath.Join(root, "online"))
	if err != nil {
		// No online list (non-standard sysfs): fall back to dense ids.
		cpus := make([]int, runtime.NumCPU())
		for i := range cpus {
			cpus[i] = i
		}
		return cpus
	}
	online, err := parseCPUList(strings.TrimSpace(string(b)))
	if err != nil || len(online) == 0 {
		return nil
	}
	if allowed := affinityCPUs(); allowed != nil {
		var both []int
		for _, c := range online {
			if allowed[c] {
				both = append(both, c)
			}
		}
		online = both
	}
	return online
}

// parseCPUList parses sysfs CPU list syntax: "0-3,8,10-11".
func parseCPUList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("harness: bad CPU range %q", part)
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		} else {
			c, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("harness: bad CPU id %q", part)
			}
			cpus = append(cpus, c)
		}
	}
	sort.Ints(cpus)
	return cpus, nil
}
