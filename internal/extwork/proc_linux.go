//go:build linux

package extwork

import (
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"syscall"
)

// startFrozen starts cmd's child stopped right after its exec, before the
// workload's first instruction, so it is still a single task: pinning it
// and opening inherited counters on it then cover everything it will run.
// The child traces itself (PTRACE_TRACEME) and so stops with SIGTRAP once
// exec'd; detaching with SIGSTOP as the signal keeps it stopped, untraced,
// until resume. ptrace requests must come from the tracing thread, so the
// calling thread stays locked from the fork to the detach. The child leads
// a process group of its own, and cancelling cmd kills that whole group.
// When cmd started but did not freeze, cmd.Process is set and the caller
// must kill and reap it.
func startFrozen(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Ptrace: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := cmd.Start(); err != nil {
		if errors.Is(err, syscall.EPERM) {
			err = fmt.Errorf("%w (the child traces itself with PTRACE_TRACEME to freeze at exec; Yama ptrace_scope 3, scope 2 without CAP_SYS_PTRACE, a seccomp filter or an outer tracer refuses it)", err)
		}
		return err
	}
	pid := cmd.Process.Pid
	if err := waitStop(pid, 0); err != nil {
		return fmt.Errorf("waiting for its exec stop: %w", err)
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_PTRACE, syscall.PTRACE_DETACH, uintptr(pid), 0, uintptr(syscall.SIGSTOP), 0, 0); errno != 0 {
		return fmt.Errorf("detaching it with SIGSTOP: %w", errno)
	}
	// The detached child takes the SIGSTOP on its own time, and is still
	// running in the kernel until it does: wait until it has stopped.
	if err := waitStop(pid, syscall.WUNTRACED); err != nil {
		return fmt.Errorf("waiting for its SIGSTOP: %w", err)
	}
	return nil
}

// waitStop waits for child pid to stop. A child that ended instead has been
// reaped here, so the caller's later Wait fails and is only for cleanup.
func waitStop(pid, options int) error {
	var ws syscall.WaitStatus
	for {
		_, err := syscall.Wait4(pid, &ws, options, nil)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return err
		}
		if !ws.Stopped() {
			return fmt.Errorf("child ended first (wait status %#x)", uint32(ws))
		}
		return nil
	}
}

// resume sends the frozen child SIGCONT.
func resume(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }
