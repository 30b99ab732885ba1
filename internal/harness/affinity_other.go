//go:build !linux

package harness

import "fmt"

// pinThread is unsupported off Linux; placements other than "none" fail.
func pinThread(cpu int) (func() error, error) {
	return nil, fmt.Errorf("harness: CPU pinning not supported on this platform (cpu=%d)", cpu)
}

// affinityCPUs is unknowable off Linux.
func affinityCPUs() map[int]bool { return nil }
