//go:build !linux

package extwork

// Without SIGSTOP/SIGCONT the child runs as soon as it starts; the meter
// window then includes a sliver of pre-setup execution. Extern trials stay
// usable on non-Linux hosts (mock meters, tests) with that caveat.
func stopProcess(int) error { return nil }
func contProcess(int) error { return nil }

// listTasks has no procfs to read; the process-wide fallback (the PID
// itself) is the only attachable task.
func listTasks(pid int) ([]int, error) { return []int{pid}, nil }
