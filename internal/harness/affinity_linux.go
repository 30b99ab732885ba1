//go:build linux

package harness

import (
	"fmt"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_{get,set}affinity mask covering 1024 CPUs.
type cpuMask [16]uint64

func threadAffinity(op uintptr, mask *cpuMask) syscall.Errno {
	_, _, errno := syscall.RawSyscall(op,
		0, // the calling thread
		uintptr(len(mask)*8),
		uintptr(unsafe.Pointer(&mask[0])),
	)
	return errno
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
	var saved, mask cpuMask
	if cpu < 0 || cpu >= len(mask)*64 {
		return nil, fmt.Errorf("harness: cpu %d out of supported range", cpu)
	}
	if errno := threadAffinity(syscall.SYS_SCHED_GETAFFINITY, &saved); errno != 0 {
		return nil, fmt.Errorf("harness: sched_getaffinity: %w", errno)
	}
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	if errno := threadAffinity(syscall.SYS_SCHED_SETAFFINITY, &mask); errno != 0 {
		return nil, fmt.Errorf("harness: sched_setaffinity(cpu=%d): %w", cpu, errno)
	}
	return func() error {
		if errno := threadAffinity(syscall.SYS_SCHED_SETAFFINITY, &saved); errno != 0 {
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
	if threadAffinity(syscall.SYS_SCHED_GETAFFINITY, &mask) != 0 {
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
