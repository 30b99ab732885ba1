//go:build linux

package harness

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"unsafe"

	"energybench/internal/meter"
)

// taskCPUs counts the CPUs in one OS thread's affinity mask.
func taskCPUs(t *testing.T, tid int) int {
	t.Helper()
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY,
		uintptr(tid), uintptr(len(mask)*8), uintptr(unsafe.Pointer(&mask[0])))
	if errno == syscall.ESRCH {
		return -1 // the thread exited between listing and reading
	}
	if errno != 0 {
		t.Fatalf("sched_getaffinity(%d): %v", tid, errno)
	}
	n := 0
	for _, bits := range mask {
		for ; bits != 0; bits &= bits - 1 {
			n++
		}
	}
	return n
}

// TestPinnedTrialsRestoreThreadAffinity is the pinning-leak regression
// test: pinned workers used to unlock their OS threads while still confined
// to one CPU, so the runtime handed those threads to later goroutines —
// including the next placement's topology walk, which then saw a one-CPU
// machine. After pinned trials, every thread of the process and every fresh
// goroutine must see all of the process's CPUs again.
func TestPinnedTrialsRestoreThreadAffinity(t *testing.T) {
	n := runtime.NumCPU()
	if n < 2 {
		t.Skip("needs 2 or more CPUs to tell a pinned thread from an unpinned one")
	}
	e := &InProcess{Meter: meter.NewMock(42)}
	for _, p := range []Placement{PlaceScatter, PlaceCompact, PlaceScatter, PlaceCompact} {
		trial := Trial{Spec: tinyInt, Threads: n, Placement: p, Iters: 1000, MinReps: 2, MaxReps: 2}
		if _, err := e.Execute(context.Background(), trial); err != nil {
			var errno syscall.Errno
			if errors.As(err, &errno) {
				t.Skipf("sched_setaffinity refused here: %v", err)
			}
			t.Fatal(err)
		}
	}

	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no procfs task list: %v", err)
	}
	for _, task := range tasks {
		tid, err := strconv.Atoi(task.Name())
		if err != nil {
			continue
		}
		if got := taskCPUs(t, tid); got >= 0 && got != n {
			t.Errorf("thread %d is confined to %d CPUs after the pinned trials, want all %d", tid, got, n)
		}
	}
	for i := 0; i < 32; i++ {
		seen := make(chan int, 1)
		go func() { seen <- len(affinityCPUs()) }()
		if got := <-seen; got != n {
			t.Fatalf("fresh goroutine %d sees %d CPUs, want all %d", i, got, n)
		}
	}
}

// TestSetAffinityConfinesTask: SetAffinity gives a task exactly the listed
// CPUs and refuses a CPU outside the mask's range.
func TestSetAffinityConfinesTask(t *testing.T) {
	if err := SetAffinity(0, []int{-1}); err == nil {
		t.Error("SetAffinity accepted cpu -1")
	}
	allowed := affinityCPUs()
	if len(allowed) == 0 {
		t.Skip("the process's CPU mask is unknown")
	}
	var all []int
	for c := range allowed {
		all = append(all, c)
	}
	// Confine this goroutine's own thread, locked so no other goroutine
	// runs on it; it is unlocked only once its mask is restored, so a failed
	// restore retires the thread instead of leaking the narrow mask.
	runtime.LockOSThread()
	tid := syscall.Gettid()
	if err := SetAffinity(tid, all[:1]); err != nil {
		var errno syscall.Errno
		if errors.As(err, &errno) {
			t.Skipf("sched_setaffinity refused here: %v", err)
		}
		t.Fatal(err)
	}
	if got := taskCPUs(t, tid); got != 1 {
		t.Errorf("task %d has %d CPUs after SetAffinity(%v), want 1", tid, got, all[:1])
	}
	if err := SetAffinity(tid, all); err != nil {
		t.Fatalf("restoring the mask: %v", err)
	}
	if got := taskCPUs(t, tid); got != len(all) {
		t.Fatalf("task %d has %d CPUs after the restore, want %d", tid, got, len(all))
	}
	runtime.UnlockOSThread()
}
