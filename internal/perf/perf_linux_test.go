//go:build linux

package perf

import (
	"errors"
	"os/exec"
	"reflect"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// softwareMeter counts two software events, task-clock (nanoseconds on a
// CPU) and page faults, through the real perf_event_open path: unlike the
// catalog's hardware events they need no PMU, so they open on virtual
// machines too. The test skips where the kernel refuses them.
func softwareMeter(t *testing.T, open func(*linuxMeter) (Session, error)) Session {
	t.Helper()
	m := &linuxMeter{
		events: []string{"task-clock", "page-faults"},
		defs:   []eventDef{{typ: 1, config: 1}, {typ: 1, config: 2}},
	}
	s, err := open(m)
	for _, refused := range []error{syscall.EACCES, syscall.EPERM, syscall.ENOENT, syscall.ENODEV} {
		if errors.Is(err, refused) {
			t.Skipf("software perf events refused: %v", err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spin keeps the calling thread on its CPU for d and faults in fresh pages.
func spin(d time.Duration) {
	buf := make([]byte, 1<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
	runtime.KeepAlive(buf)
}

// TestThreadSessionCountsEachRepetition: a thread session reports each
// repetition on its own. Its counts reset at Start and its times are taken
// from the Start baseline, so a short repetition after a long one reads
// less task-clock and less enabled time than the long one, and about as
// much task-clock as enabled time. Poll after Stop, and after Close,
// returns the final reading, and a closed session does not start again.
func TestThreadSessionCountsEachRepetition(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s := softwareMeter(t, func(m *linuxMeter) (Session, error) { return m.OpenThread(-1, "") })
	rep := func(d time.Duration) Counts {
		t.Helper()
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		spin(d)
		c, err := s.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if p, err := s.Poll(); err != nil || !reflect.DeepEqual(p, c) {
			t.Errorf("Poll after Stop = %+v, %v; want the Stop reading %+v", p, err, c)
		}
		return c
	}
	long, short := rep(40*time.Millisecond), rep(time.Millisecond)
	for _, c := range []Counts{long, short} {
		clock := c.Values[0]
		if clock.TimeEnabledNS == 0 || clock.Multiplexed() || clock.Scaled > 1.1*float64(clock.TimeEnabledNS) || clock.Scaled < 0.5*float64(clock.TimeEnabledNS) {
			t.Errorf("task-clock %+v: want about its enabled time, unmultiplexed", clock)
		}
	}
	if short.Values[0].TimeEnabledNS >= long.Values[0].TimeEnabledNS || short.Values[0].Raw >= long.Values[0].Raw {
		t.Errorf("1 ms repetition %+v after a 40 ms one %+v: counts or times carried over", short.Values[0], long.Values[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err := s.Poll(); err != nil || !reflect.DeepEqual(p, short) {
		t.Errorf("Poll after Close = %+v, %v; want the last reading %+v", p, err, short)
	}
	if err := s.Start(); err == nil {
		t.Error("Start on a closed session succeeded")
	}
}

// TestTaskSessionInheritsChildren: a task session attached to a stopped
// child counts what the child's own children do once it resumes (the
// inherit bit): here a shell whose forked subshell does all the work, so
// the task-clock must reach most of the CPU time the child and its
// subshell used. Poll after Close returns the final reading, and a task id
// that is not positive is refused.
func TestTaskSessionInheritsChildren(t *testing.T) {
	sh, err := exec.LookPath("sh")
	if err != nil {
		t.Skipf("sh not available: %v", err)
	}
	// The child stops itself before it forks: a SIGSTOP sent after Start
	// can land after the fork, and the subshell would then run uncounted.
	cmd := exec.Command(sh, "-c", `kill -STOP $$; sh -c 'i=0; while [ $i -lt 100000 ]; do i=$((i+1)); done'; exit 0`)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A skipped or failed test must not leave the child stopped behind.
	defer func() { _ = cmd.Process.Kill(); _ = cmd.Wait() }()
	pid := cmd.Process.Pid
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(pid, &ws, syscall.WUNTRACED, nil); err != nil || !ws.Stopped() {
		t.Fatalf("child did not stop itself: %v, status %v", err, ws)
	}
	s := softwareMeter(t, func(m *linuxMeter) (Session, error) { return m.OpenTask(pid, -1, "") })
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	c, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if clock := c.Values[0]; clock.Scaled < 0.5*float64(cpu.Nanoseconds()) {
		t.Errorf("task-clock %v ns over a child that used %v of CPU: its subshell was not counted", clock.Scaled, cpu)
	}
	if faults := c.Values[1]; faults.Raw == 0 {
		t.Errorf("page faults %+v over a child that started a shell", faults)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err := s.Poll(); err != nil || !reflect.DeepEqual(p, c) {
		t.Errorf("Poll after Close = %+v, %v; want the Stop reading %+v", p, err, c)
	}
	if _, err := (&linuxMeter{}).OpenTask(0, -1, ""); err == nil {
		t.Error("OpenTask(0) succeeded")
	}
}
