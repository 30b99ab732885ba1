//go:build !linux

package extwork

import "os/exec"

// startFrozen starts the child unfrozen: without ptrace the workload runs
// as soon as it starts, so it may create threads or children before it is
// pinned and its counters open, and the meter window misses that first
// stretch. Extern trials stay usable on non-Linux hosts (mock meters,
// tests) with that caveat. Cancelling cmd kills only the direct child.
func startFrozen(cmd *exec.Cmd) error { return cmd.Start() }

// resume has nothing to resume.
func resume(int) error { return nil }
