//go:build linux

package perf

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// perfEventOpenNR maps GOARCH to the perf_event_open syscall number; the
// number is architecture-specific and the Go standard library does not
// export it.
var perfEventOpenNR = map[string]uintptr{
	"amd64":   298,
	"386":     336,
	"arm":     364,
	"arm64":   241,
	"riscv64": 241,
	"loong64": 241,
	"ppc64":   319,
	"ppc64le": 319,
	"s390x":   331,
}

// perf_event_attr flag bits and ioctl/flag constants
// (uapi/linux/perf_event.h).
const (
	attrBitDisabled      = 1 << 0
	attrBitInherit       = 1 << 1
	attrBitExcludeKernel = 1 << 5
	attrBitExcludeHV     = 1 << 6

	formatTotalTimeEnabled = 1 << 0
	formatTotalTimeRunning = 1 << 1
	formatGroup            = 1 << 3

	perfFlagFDCloexec = 1 << 3

	perfIOCEnable    = 0x2400
	perfIOCDisable   = 0x2401
	perfIOCReset     = 0x2403
	perfIOCFlagGroup = 1

	// PERF_ATTR_SIZE_VER5: the attr layout below, through aux_watermark /
	// sample_max_stack. Older kernels accept smaller sizes; newer ones
	// zero-fill.
	attrSize = 112
)

// perfEventAttr mirrors struct perf_event_attr through VER5.
type perfEventAttr struct {
	Type               uint32
	Size               uint32
	Config             uint64
	SamplePeriodOrFreq uint64
	SampleType         uint64
	ReadFormat         uint64
	Bits               uint64
	WakeupEvents       uint32
	BPType             uint32
	Config1            uint64
	Config2            uint64
	BranchSampleType   uint64
	SampleRegsUser     uint64
	SampleStackUser    uint32
	ClockID            int32
	SampleRegsIntr     uint64
	AuxWatermark       uint32
	SampleMaxStack     uint16
	_                  uint16
}

// linuxMeter opens perf_event FDs on the calling thread or on another
// process. The meter itself is pure configuration; every FD lives in a
// session.
type linuxMeter struct {
	events []string
	defs   []eventDef
}

func newPlatformMeter(events []string) (ActivityMeter, error) {
	if _, ok := perfEventOpenNR[runtime.GOARCH]; !ok {
		return nil, fmt.Errorf("perf: perf_event_open syscall number unknown for %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	m := &linuxMeter{events: events}
	for _, e := range events {
		def, ok := eventDefs[e]
		if !ok {
			return nil, fmt.Errorf("perf: unknown event %q (known: %v)", e, EventNames())
		}
		m.defs = append(m.defs, def)
	}
	if len(m.defs) == 0 {
		return nil, fmt.Errorf("perf: no events to count")
	}
	return m, nil
}

func (m *linuxMeter) Name() string     { return BackendPerf }
func (m *linuxMeter) Events() []string { return m.events }

// OpenThread opens one counter group for the calling thread: the first event
// is the group leader, the rest attach to it, so the whole set schedules
// onto the PMU (and multiplexes off it) as a unit and a single read returns
// consistent counts plus the shared time_enabled/time_running pair.
func (m *linuxMeter) OpenThread(cpu int, _ string) (Session, error) {
	return m.open(0, cpu, true)
}

// OpenTask opens inherited counters on process pid, so every thread and
// child it creates after the open counts too. The kernel rejects inherit
// combined with PERF_FORMAT_GROUP, so unlike OpenThread each event gets its
// own FD carrying its own time_enabled/time_running pair and multiplex-scales
// independently.
func (m *linuxMeter) OpenTask(pid, cpu int, _ string) (Session, error) {
	if pid <= 0 {
		return nil, fmt.Errorf("perf: OpenTask needs a positive pid, got %d", pid)
	}
	return m.open(pid, cpu, false)
}

// open opens one FD per event on task pid (0: the calling thread). A grouped
// session is a PERF_FORMAT_GROUP group led by its first FD; an ungrouped one
// has an inherited FD per event.
func (m *linuxMeter) open(pid, cpu int, grouped bool) (Session, error) {
	s := &linuxSession{
		grouped: grouped,
		base:    make([]reading, len(m.defs)),
		last:    Counts{Values: make([]EventCount, len(m.defs))},
	}
	for i, def := range m.defs {
		attr := perfEventAttr{
			Type:       def.typ,
			Size:       attrSize,
			Config:     def.config,
			ReadFormat: formatTotalTimeEnabled | formatTotalTimeRunning,
			// Counters start disabled and are enabled by Start, so setup
			// work between the open and Start is never counted. Kernel and
			// hypervisor exclusion keeps the measurement to user-space work
			// and lets the open succeed at perf_event_paranoid = 2, the
			// common unprivileged default.
			Bits: attrBitDisabled | attrBitExcludeKernel | attrBitExcludeHV,
		}
		group := -1
		if grouped {
			attr.ReadFormat |= formatGroup
			if i > 0 {
				group = s.fds[0]
			}
		} else {
			attr.Bits |= attrBitInherit
		}
		fd, err := perfEventOpen(&attr, pid, cpu, group, perfFlagFDCloexec)
		if err != nil {
			s.Close()
			return nil, openError(m.events[i], err)
		}
		s.fds = append(s.fds, fd)
	}
	return s, nil
}

// openError wraps a perf_event_open failure with the likely remedy.
func openError(event string, err error) error {
	switch {
	case err == syscall.EACCES || err == syscall.EPERM:
		return fmt.Errorf("perf: opening %q: %w (self-profiling needs kernel.perf_event_paranoid <= 2 or CAP_PERFMON; check /proc/sys/kernel/perf_event_paranoid)", event, err)
	case err == syscall.ENOENT || err == syscall.ENODEV || err == syscall.EOPNOTSUPP:
		return fmt.Errorf("perf: opening %q: %w (event not supported by this CPU/PMU — try a smaller --counters set)", event, err)
	}
	return fmt.Errorf("perf: opening %q: %w", event, err)
}

func perfEventOpen(attr *perfEventAttr, pid, cpu, groupFD int, flags uintptr) (int, error) {
	nr := perfEventOpenNR[runtime.GOARCH]
	fd, _, errno := syscall.Syscall6(nr,
		uintptr(unsafe.Pointer(attr)),
		uintptr(pid), uintptr(cpu), uintptr(groupFD), flags, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// reading is one event's count and the cumulative time pair it was counted
// over.
type reading struct{ raw, enabled, running uint64 }

// linuxSession is one session's FDs: a group led by fds[0], or one inherited
// FD per event. base snapshots each event's cumulative time pair at the last
// Start: PERF_EVENT_IOC_RESET zeroes only the counts, so per-repetition times
// must be taken as deltas against this baseline or a reused thread session
// would scale one repetition's counts over every previous repetition's
// enabled window. The mutex serializes the worker thread's Start/Stop/Close
// against Poll calls from a sampling goroutine; last caches the most recent
// full reading so Poll stays answerable after Close.
type linuxSession struct {
	mu      sync.Mutex
	fds     []int
	grouped bool
	base    []reading
	last    Counts
}

// ioctl applies req to the group through its leader, or to every FD.
func (s *linuxSession) ioctl(req uintptr) error {
	fds, flag := s.fds, uintptr(0)
	if s.grouped {
		fds, flag = fds[:1], perfIOCFlagGroup
	}
	for _, fd := range fds {
		if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, uintptr(fd), req, flag); errno != 0 {
			return fmt.Errorf("perf: ioctl %#x: %w", req, errno)
		}
	}
	return nil
}

// read reads every event: a group in one syscall, whose PERF_FORMAT_GROUP
// layout is {nr, time_enabled, time_running, value...}, or each FD's own
// {value, time_enabled, time_running}; all u64 in host byte order.
func (s *linuxSession) read() ([]reading, error) {
	out := make([]reading, len(s.fds))
	if s.grouped {
		words := make([]uint64, 3+len(s.fds))
		if err := readWords(s.fds[0], words); err != nil {
			return nil, err
		}
		if got := int(words[0]); got != len(s.fds) {
			return nil, fmt.Errorf("perf: counter group read reports %d members, want %d", got, len(s.fds))
		}
		for i := range out {
			out[i] = reading{words[3+i], words[1], words[2]}
		}
		return out, nil
	}
	var words [3]uint64
	for i, fd := range s.fds {
		if err := readWords(fd, words[:]); err != nil {
			return nil, err
		}
		out[i] = reading{words[0], words[1], words[2]}
	}
	return out, nil
}

// readWords fills words from one read of fd.
func readWords(fd int, words []uint64) error {
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	n, err := syscall.Read(fd, buf)
	if err != nil {
		return fmt.Errorf("perf: reading counters: %w", err)
	}
	if n != len(buf) {
		return fmt.Errorf("perf: short counter read: %d bytes, want %d", n, len(buf))
	}
	return nil
}

// Start zeroes the counts, snapshots the cumulative time pairs as the
// repetition baseline (still disabled, so the snapshot is exact), and
// enables the counters. Inherited counters created afterwards (a task's new
// threads and children) start enabled, so starting a task session while its
// process is stopped covers all of the process's run.
func (s *linuxSession) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fds) == 0 {
		return fmt.Errorf("perf: session is closed")
	}
	if err := s.ioctl(perfIOCReset); err != nil {
		return err
	}
	base, err := s.read()
	if err != nil {
		return err
	}
	s.base = base
	return s.ioctl(perfIOCEnable)
}

// Stop disables the counters and reads them, reporting counts with times
// taken relative to the Start baseline.
func (s *linuxSession) Stop() (Counts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fds) == 0 {
		return Counts{}, fmt.Errorf("perf: session is closed")
	}
	if err := s.ioctl(perfIOCDisable); err != nil {
		return Counts{}, err
	}
	return s.readCounts()
}

// Poll reads the counters without disabling them: counts keep accumulating
// while the measured region runs. On a closed session it returns the last
// full reading, so a sampler tick racing session teardown sees frozen counts
// instead of an error.
func (s *linuxSession) Poll() (Counts, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.fds) == 0 {
		return s.last, nil
	}
	return s.readCounts()
}

// readCounts reads the counters, scales them against the Start baseline and
// keeps the reading as last. With inherit, a task session's counts and times
// are sums over the task and its descendants; rate consumers should divide
// by a wall clock, not time_enabled, to get the process-aggregate rate.
// Callers hold s.mu.
func (s *linuxSession) readCounts() (Counts, error) {
	rs, err := s.read()
	if err != nil {
		return Counts{}, err
	}
	c := Counts{Values: make([]EventCount, len(rs))}
	for i, r := range rs {
		enabled, running := r.enabled-s.base[i].enabled, r.running-s.base[i].running
		c.Values[i] = EventCount{
			Raw:           r.raw,
			Scaled:        scaleCount(r.raw, enabled, running),
			TimeEnabledNS: enabled,
			TimeRunningNS: running,
		}
	}
	s.last = c
	return c, nil
}

func (s *linuxSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, fd := range s.fds {
		if err := syscall.Close(fd); err != nil && first == nil {
			first = err
		}
	}
	s.fds = nil
	return first
}
