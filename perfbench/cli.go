package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// usage is the resource use of finished processes of the system under test.
// A reaped process's rusage already covers every descendant it waited for
// (worker children, external workloads), so summing the processes the driver
// starts covers the whole system.
type usage struct {
	CPU      time.Duration // user + system
	MaxRSSKB int64         // largest max-RSS of any process
}

func (u *usage) add(o usage) {
	u.CPU += o.CPU
	u.MaxRSSKB = max(u.MaxRSSKB, o.MaxRSSKB)
}

// proc is one energybench process started by the driver through the
// launcher (launch/main.go). Start, End and usage are the launcher's report
// on the energybench process itself.
type proc struct {
	cmd    *exec.Cmd // the launcher
	name   string    // the energybench subcommand
	Start  time.Time
	End    time.Time
	Stdout bytes.Buffer
	stderr *lineWriter
	usage  usage
	report *os.File // read end of the launcher's report pipe
	lines  *bufio.Reader
}

// cli runs energybench processes.
type cli struct {
	bin    string // the energybench binary
	launch string // the launcher binary
}

// start launches `energybench args...`; watch, when non-nil, sees every
// stderr line with the time it arrived. Start, End and usage are set once
// the process has been reaped: reading the launcher's report before then
// leaves no thread of the driver polling the stderr pipe, which delays every
// line by up to 10 ms.
func (c *cli) start(args []string, watch func(line string, at time.Time)) (*proc, error) {
	p := &proc{name: args[0], stderr: &lineWriter{watch: watch}}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p.report, p.lines = r, bufio.NewReader(r)
	p.cmd = exec.Command(c.launch, append([]string{c.bin}, args...)...)
	p.cmd.Stdout = &p.Stdout
	p.cmd.Stderr = p.stderr
	p.cmd.ExtraFiles = []*os.File{w}
	err = p.cmd.Start()
	w.Close()
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("starting energybench %s: %w", p.name, err)
	}
	return p, nil
}

func (p *proc) readReport(v any) error {
	line, err := p.lines.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading the launcher's report: %w", err)
	}
	return json.Unmarshal(line, v)
}

// wait reaps the process and records its start and end time and resource
// use; a non-zero exit is an error carrying the stderr tail.
func (p *proc) wait() error {
	err := p.cmd.Wait()
	var start struct {
		StartNS int64 `json:"start_ns"`
	}
	var end struct {
		EndNS    int64 `json:"end_ns"`
		CPUNS    int64 `json:"cpu_ns"`
		MaxRSSKB int64 `json:"max_rss_kb"`
	}
	rerr := p.readReport(&start)
	if rerr == nil {
		rerr = p.readReport(&end)
	}
	p.report.Close()
	p.Start, p.End = time.Unix(0, start.StartNS), time.Unix(0, end.EndNS)
	p.usage = usage{CPU: time.Duration(end.CPUNS), MaxRSSKB: end.MaxRSSKB}
	if err != nil {
		return fmt.Errorf("energybench %s: %w; stderr: %s", p.name, err, p.stderr.tail())
	}
	if rerr != nil {
		return fmt.Errorf("energybench %s: %w", p.name, rerr)
	}
	return nil
}

// terminate stops a long-running process (serve, agent) with SIGTERM, which
// the launcher passes on, and reaps it, so its rusage is complete; the
// launcher is killed, and energybench with it, if it does not exit within
// ten seconds.
func (p *proc) terminate() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, syscall.ESRCH) {
		return fmt.Errorf("signalling energybench %s: %w", p.name, err)
	}
	timer := time.AfterFunc(10*time.Second, func() { _ = p.cmd.Process.Kill() })
	defer timer.Stop()
	return p.wait()
}

// run starts a process and waits for it.
func (c *cli) run(args ...string) (*proc, error) {
	p, err := c.start(args, nil)
	if err != nil {
		return nil, err
	}
	return p, p.wait()
}

// wall is the process's wall time from start to reaping.
func (p *proc) wall() time.Duration { return p.End.Sub(p.Start) }

// lineWriter timestamps every complete stderr line as it arrives and keeps
// a bounded tail for error messages.
type lineWriter struct {
	watch func(line string, at time.Time)

	mu      sync.Mutex
	partial []byte
	all     []byte
}

func (w *lineWriter) Write(b []byte) (int, error) {
	at := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.all = append(w.all, b...)
	if len(w.all) > 4096 {
		w.all = w.all[len(w.all)-4096:]
	}
	w.partial = append(w.partial, b...)
	for {
		i := bytes.IndexByte(w.partial, '\n')
		if i < 0 {
			break
		}
		line := string(w.partial[:i])
		w.partial = w.partial[i+1:]
		if w.watch != nil {
			w.watch(line, at)
		}
	}
	return len(b), nil
}

func (w *lineWriter) tail() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(string(w.all))
}

// waitSignal waits for a stderr-line notification, giving up after timeout
// or when the context ends.
func waitSignal(ctx context.Context, ch <-chan string, timeout time.Duration, what string) (string, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case v := <-ch:
		return v, nil
	case <-t.C:
		return "", fmt.Errorf("timed out after %v waiting for %s", timeout, what)
	case <-ctx.Done():
		return "", ctx.Err()
	}
}
