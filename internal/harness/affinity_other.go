//go:build !linux

package harness

import "fmt"

// pinThread is unsupported off Linux; placements other than "none" fail.
func pinThread(cpu int) (func() error, error) {
	return nil, fmt.Errorf("harness: CPU pinning not supported on this platform (cpu=%d)", cpu)
}

// SetAffinity is unsupported off Linux; extern trials with a CPU lease fail.
func SetAffinity(pid int, cpus []int) error {
	return fmt.Errorf("harness: process affinity not supported on this platform (pid=%d)", pid)
}

// affinityCPUs is unknowable off Linux.
func affinityCPUs() map[int]bool { return nil }
