// Command launch runs one process of the system under test for the
// benchmark driver and reports that process's own start, end and resource
// use:
//
//	launch <program> <args...>
//
// The driver starts every energybench process through it because Linux
// counts the memory of the process that spawns a child in the child's
// max-RSS: a process started straight from the driver reports at least the
// driver's own peak RSS, which holds every generated input. This launcher
// stays small, so the max-RSS it reports is the program's.
//
// It writes two JSON lines to file descriptor 3: {"start_ns"} once the
// program has started, and {"end_ns", "cpu_ns", "max_rss_kb"} once it has
// been reaped. The program inherits standard input, output and error, and
// SIGTERM and SIGINT are passed on to it. The launcher exits with the
// program's exit status.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: launch <program> <args...>")
		os.Exit(2)
	}
	report := json.NewEncoder(os.NewFile(3, "report"))
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	// Pdeathsig fires when the thread that started the program exits, so
	// that thread must be the one that lives as long as the launcher: if the
	// launcher is killed, the program is killed with it.
	runtime.LockOSThread()
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "launch:", err)
		os.Exit(127)
	}
	if err := report.Encode(map[string]int64{"start_ns": time.Now().UnixNano()}); err != nil {
		fmt.Fprintln(os.Stderr, "launch: writing report:", err)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case s := <-sigs:
				_ = cmd.Process.Signal(s) // it may have exited already
			case <-done:
				return
			}
		}
	}()
	err := cmd.Wait()
	end := time.Now()
	close(done)
	var cpu, rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpu, rss = ru.Utime.Nano()+ru.Stime.Nano(), ru.Maxrss
	}
	if werr := report.Encode(map[string]int64{"end_ns": end.UnixNano(), "cpu_ns": cpu, "max_rss_kb": rss}); werr != nil {
		fmt.Fprintln(os.Stderr, "launch: writing report:", werr)
	}
	if err != nil {
		if code := cmd.ProcessState.ExitCode(); code > 0 {
			os.Exit(code)
		}
		os.Exit(1) // killed by a signal
	}
}
