//go:build linux

package harness

import (
	"fmt"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_{get,set}affinity mask covering 1024 CPUs.
type cpuMask [16]uint64

// maskOf builds the mask holding exactly cpus.
func maskOf(cpus ...int) (cpuMask, error) {
	var mask cpuMask
	for _, c := range cpus {
		if c < 0 || c >= len(mask)*64 {
			return mask, fmt.Errorf("harness: cpu %d out of supported range", c)
		}
		mask[c/64] |= 1 << (uint(c) % 64)
	}
	return mask, nil
}

// schedAffinity runs sched_getaffinity or sched_setaffinity (op) on task
// tid; tid 0 is the calling thread.
func schedAffinity(op uintptr, tid int, mask *cpuMask) syscall.Errno {
	_, _, errno := syscall.RawSyscall(op,
		uintptr(tid),
		uintptr(len(mask)*8),
		uintptr(unsafe.Pointer(&mask[0])),
	)
	return errno
}

// SetAffinity confines task pid to the union of cpus. Threads the task
// spawns afterwards inherit the mask, so an external workload's whole
// process stays inside its trial's CPU lease: taskset-style union
// affinity, since an opaque binary's threads cannot be pinned one by one.
func SetAffinity(pid int, cpus []int) error {
	mask, err := maskOf(cpus...)
	if err != nil {
		return err
	}
	if errno := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, pid, &mask); errno != 0 {
		return fmt.Errorf("harness: sched_setaffinity(pid=%d, cpus=%v): %w", pid, cpus, errno)
	}
	return nil
}

// pinThread binds the calling OS thread to one logical CPU via
// sched_setaffinity and returns unpin, which restores the thread's previous
// mask. Callers must hold runtime.LockOSThread for the pin to stay
// meaningful, and may call runtime.UnlockOSThread only after unpin
// succeeded: an unlocked thread returns to the runtime's pool, and one
// still confined to a single CPU would carry that mask into whatever
// goroutine runs on it next (including the topology walk of the next
// placement). Best-effort:
// restricted environments (containers without CAP_SYS_NICE over the full
// cpuset) surface the error to the caller, who decides whether pinning is
// mandatory.
func pinThread(cpu int) (unpin func() error, err error) {
	mask, err := maskOf(cpu)
	if err != nil {
		return nil, err
	}
	var saved cpuMask
	if errno := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &saved); errno != 0 {
		return nil, fmt.Errorf("harness: sched_getaffinity: %w", errno)
	}
	if errno := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, 0, &mask); errno != 0 {
		return nil, fmt.Errorf("harness: sched_setaffinity(cpu=%d): %w", cpu, errno)
	}
	return func() error {
		if errno := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, 0, &saved); errno != 0 {
			return fmt.Errorf("harness: restoring thread affinity: %w", errno)
		}
		return nil
	}, nil
}

// affinityCPUs returns the set of CPUs the calling thread may run on, or
// nil when it cannot be determined. Every thread outside a pinned worker's
// locked region carries the process's mask (cgroup cpusets, taskset) —
// pinThread's unpin guarantees that — so this reads the process's CPUs.
func affinityCPUs() map[int]bool {
	var mask cpuMask
	if schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &mask) != 0 {
		return nil
	}
	allowed := make(map[int]bool)
	for w, bits := range mask {
		for b := 0; bits != 0; b++ {
			if bits&1 != 0 {
				allowed[w*64+b] = true
			}
			bits >>= 1
		}
	}
	return allowed
}
