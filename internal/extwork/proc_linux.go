//go:build linux

package extwork

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// stopProcess freezes a just-started child with SIGSTOP so affinity and
// counter attachment happen before it does any real work; SIGSTOP cannot be
// caught or ignored, so the freeze is unconditional.
func stopProcess(pid int) error { return syscall.Kill(pid, syscall.SIGSTOP) }

// contProcess resumes a frozen child.
func contProcess(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }

// listTasks enumerates the process's kernel tasks (TIDs) from procfs.
func listTasks(pid int) ([]int, error) {
	ents, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return nil, err
	}
	var tids []int
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			tids = append(tids, tid)
		}
	}
	return tids, nil
}
