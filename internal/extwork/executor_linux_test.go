//go:build linux

package extwork

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"energybench/internal/meter"
)

// hookMeter calls hook before each of its meter's reads: Measure reads
// once before (read 0, 2, …) and once after every repetition.
type hookMeter struct {
	meter.EnergyMeter
	reads int
	hook  func(read int)
}

func (m *hookMeter) Read() (meter.Reading, error) {
	m.hook(m.reads)
	m.reads++
	return m.EnergyMeter.Read()
}

// procStat returns a process's state and parent pid from /proc/PID/stat.
func procStat(pid int) (state string, ppid int, err error) {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return "", 0, err
	}
	// The fields after the parenthesized command name: state, ppid, …
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	ppid, err = strconv.Atoi(f[1])
	return f[0], ppid, err
}

// liveChildren lists this process's children that have not exited.
func liveChildren(t *testing.T) []int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if state, ppid, err := procStat(pid); err == nil && ppid == os.Getpid() && state != "Z" {
			pids = append(pids, pid)
		}
	}
	return pids
}

// allowedCPUs returns a process's Cpus_allowed_list from /proc/PID/status.
func allowedCPUs(t *testing.T, pid string) string {
	t.Helper()
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("/proc/%s/status has no Cpus_allowed_list", pid)
	return ""
}

// TestChildFrozenAtExec watches the child from each repetition's opening
// meter read: it is stopped, it is one task, it already runs on the
// trial's CPU, and it has not run its first command, which creates a
// marker file; after Release the marker exists.
func TestChildFrozenAtExec(t *testing.T) {
	needCmd(t, "sh")
	marker := filepath.Join(t.TempDir(), "ran")
	cpu, _, _ := strings.Cut(strings.Split(allowedCPUs(t, "self"), ",")[0], "-")
	tr := externTrial("frozen", []string{"sh", "-c", `: > "$MARKER"; exit 0`})
	tr.MinReps, tr.MaxReps = 2, 2
	tr.Extern.Env = map[string]string{"MARKER": marker}
	n, err := strconv.Atoi(cpu)
	if err != nil {
		t.Fatal(err)
	}
	tr.CPUs = []int{n}
	m := &hookMeter{EnergyMeter: meter.NewMock(30)}
	m.hook = func(read int) {
		if read%2 == 1 {
			if _, err := os.Stat(marker); err != nil {
				t.Errorf("read %d, after Release: %v", read, err)
			}
			os.Remove(marker)
			return
		}
		kids := liveChildren(t)
		if len(kids) != 1 {
			t.Fatalf("read %d: children %v, want the one workload", read, kids)
		}
		pid := strconv.Itoa(kids[0])
		if state, _, err := procStat(kids[0]); err != nil || state != "T" {
			t.Errorf("read %d: child state %q (%v), want stopped (T)", read, state, err)
		}
		if tasks, err := os.ReadDir("/proc/" + pid + "/task"); err != nil || len(tasks) != 1 {
			t.Errorf("read %d: child has %d tasks (%v), want 1", read, len(tasks), err)
		}
		if got := allowedCPUs(t, pid); got != cpu {
			t.Errorf("read %d: child may run on CPUs %s, want %s", read, got, cpu)
		}
		if _, err := os.Stat(marker); !os.IsNotExist(err) {
			t.Errorf("read %d: the child ran before the opening read (marker: %v)", read, err)
		}
	}
	res, err := (&ExternExecutor{Meter: m}).Execute(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 || m.reads != 4 {
		t.Errorf("%d samples over %d meter reads, want 2 over 4", len(res.Samples), m.reads)
	}
}

// TestExecuteTimeoutKillsProcessGroup: a timed-out workload takes what it
// started with it. The shell's sleep would otherwise keep running into
// later trials' meter windows and hold the stderr pipe, so the trial would
// return only after the 3 s WaitDelay.
func TestExecuteTimeoutKillsProcessGroup(t *testing.T) {
	needCmd(t, "sh")
	needCmd(t, "sleep")
	tr := externTrial("forker", []string{"sh", "-c", "sleep 6.375; :"})
	tr.Extern.Timeout = 100 * time.Millisecond

	start := time.Now()
	_, err := testExecutor().Execute(context.Background(), tr)
	if err == nil || !strings.Contains(err.Error(), "timed out after 100ms") {
		t.Fatalf("timeout: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed-out trial took %v; its sleep held the stderr pipe", elapsed)
	}
	// SIGKILL lands asynchronously; give the group a moment to die.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(10 * time.Millisecond) {
		left := sleepers(t)
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the workload's sleep is still running: pids %v", left)
		}
	}
}

// sleepers lists the processes running `sleep 6.375`.
func sleepers(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, e := range ents {
		if cmdline, err := os.ReadFile("/proc/" + e.Name() + "/cmdline"); err == nil &&
			bytes.HasSuffix(cmdline, []byte("sleep\x006.375\x00")) {
			pids = append(pids, e.Name())
		}
	}
	return pids
}
