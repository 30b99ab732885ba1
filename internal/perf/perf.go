package perf

import (
	"fmt"
	"sort"
)

// Backend names for Spec.Backend.
const (
	// BackendPerf is the Linux perf_event_open backend. Requires Linux with
	// kernel.perf_event_paranoid <= 2 (self-profiling) or CAP_PERFMON.
	BackendPerf = "perf"
	// BackendMock is the deterministic mock backend: planted per-component
	// event rates, available everywhere.
	BackendMock = "mock"
)

// eventDef describes one hardware event in perf_event_open terms.
type eventDef struct {
	typ    uint32 // perf_event_attr.type
	config uint64 // perf_event_attr.config
	desc   string
}

// perf_event_open type and config constants (uapi/linux/perf_event.h).
const (
	perfTypeHardware uint32 = 0
	perfTypeHWCache  uint32 = 3

	hwCPUCycles            uint64 = 0
	hwInstructions         uint64 = 1
	hwCacheReferences      uint64 = 2
	hwCacheMisses          uint64 = 3
	hwBranchInstructions   uint64 = 4
	hwBranchMisses         uint64 = 5
	hwStalledCyclesFront   uint64 = 7
	hwStalledCyclesBackend uint64 = 8

	// HW_CACHE config = cache | (op << 8) | (result << 16); L1D = 0, LL = 2,
	// read op = 0, access result = 0, miss result = 1.
	hwCacheL1DReadAccess uint64 = 0x0
	hwCacheL1DReadMiss   uint64 = 0x10000
	hwCacheLLReadAccess  uint64 = 0x2
	hwCacheLLReadMiss    uint64 = 0x10002
)

// eventDefs is the event catalog: every name Spec.Events may use. The L2 has
// no generic perf event; L2 traffic is observed as L1D misses (L2 accesses)
// and LLC references (L2 misses that reach the LLC).
var eventDefs = map[string]eventDef{
	"instructions":     {perfTypeHardware, hwInstructions, "retired instructions"},
	"cycles":           {perfTypeHardware, hwCPUCycles, "CPU cycles"},
	"cache-refs":       {perfTypeHardware, hwCacheReferences, "last-level cache references (≈ L2 misses)"},
	"llc-misses":       {perfTypeHardware, hwCacheMisses, "last-level cache misses (DRAM accesses)"},
	"branches":         {perfTypeHardware, hwBranchInstructions, "retired branch instructions"},
	"branch-misses":    {perfTypeHardware, hwBranchMisses, "mispredicted branches"},
	"stalled-frontend": {perfTypeHardware, hwStalledCyclesFront, "cycles with no uops issued"},
	"stalled-backend":  {perfTypeHardware, hwStalledCyclesBackend, "cycles stalled on execution resources"},
	"l1d-loads":        {perfTypeHWCache, hwCacheL1DReadAccess, "L1D read accesses"},
	"l1d-misses":       {perfTypeHWCache, hwCacheL1DReadMiss, "L1D read misses (L2 accesses)"},
	"llc-loads":        {perfTypeHWCache, hwCacheLLReadAccess, "LLC read accesses"},
	"llc-load-misses":  {perfTypeHWCache, hwCacheLLReadMiss, "LLC read misses"},
}

// DefaultEvents is the event set used when a Spec names none: the paper's
// activity drivers — work retired, clock, cache-miss traffic per level, and
// backend stalls. Sized to fit one hardware counter group on typical x86
// PMUs (instructions and cycles land on fixed counters).
func DefaultEvents() []string {
	return []string{"instructions", "cycles", "l1d-misses", "llc-misses", "stalled-backend"}
}

// EventNames returns every known event name, sorted, for error messages and
// help text.
func EventNames() []string {
	names := make([]string, 0, len(eventDefs))
	for n := range eventDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Spec configures activity metering for a trial: which backend counts and
// which events it counts. The zero value is "no counters"; a Spec attached
// to a trial is normalized first, so serialized trials always carry the
// explicit backend and event list.
type Spec struct {
	// Backend is BackendPerf (default) or BackendMock.
	Backend string `json:"backend"`
	// Events are event-catalog names; the name "default" expands to
	// DefaultEvents(). Empty means DefaultEvents().
	Events []string `json:"events"`
}

// Normalize applies defaults ("perf" backend, default event set, "default"
// expansion), validates backend and event names, and drops duplicate events
// keeping first-appearance order.
func (s Spec) Normalize() (Spec, error) {
	out := Spec{Backend: s.Backend}
	if out.Backend == "" {
		out.Backend = BackendPerf
	}
	switch out.Backend {
	case BackendPerf, BackendMock:
	default:
		return out, fmt.Errorf("perf: unknown counter backend %q (want %s|%s)", out.Backend, BackendPerf, BackendMock)
	}
	names := s.Events
	if len(names) == 0 {
		names = []string{"default"}
	}
	seen := map[string]bool{}
	for _, n := range names {
		expanded := []string{n}
		if n == "default" {
			expanded = DefaultEvents()
		}
		for _, e := range expanded {
			if _, ok := eventDefs[e]; !ok {
				return out, fmt.Errorf("perf: unknown event %q (known: %v)", e, EventNames())
			}
			if seen[e] {
				continue
			}
			seen[e] = true
			out.Events = append(out.Events, e)
		}
	}
	return out, nil
}

// EventCount is one event's reading from one counting session. Raw is what
// the hardware counted while the event was actually scheduled on a counter;
// Scaled extrapolates it over the whole enabled window
// (raw × time_enabled / time_running), the standard correction for
// multiplexed counters.
type EventCount struct {
	Raw           uint64  `json:"raw"`
	Scaled        float64 `json:"scaled"`
	TimeEnabledNS uint64  `json:"time_enabled_ns"`
	TimeRunningNS uint64  `json:"time_running_ns"`
}

// Multiplexed reports whether the event was counter-multiplexed (scheduled
// for only part of the enabled window), i.e. Scaled is an extrapolation.
func (c EventCount) Multiplexed() bool {
	return c.TimeRunningNS < c.TimeEnabledNS
}

// scaleCount computes the multiplex-corrected count. An event that was never
// scheduled (running time zero) yields zero: there is nothing to extrapolate
// from, and callers see Multiplexed() == true when enabled time elapsed.
func scaleCount(raw, enabledNS, runningNS uint64) float64 {
	if runningNS == 0 {
		return 0
	}
	return float64(raw) * float64(enabledNS) / float64(runningNS)
}

// Counts is one session's readings, Values[i] corresponding to the meter's
// Events()[i].
type Counts struct {
	Values []EventCount `json:"values"`
}

// ActivityMeter opens counting sessions on the calling thread or on another
// process. One meter serves many concurrent sessions; all state lives in the
// Session.
type ActivityMeter interface {
	// Name identifies the backend ("perf", "mock").
	Name() string
	// Events lists the counted events in the order Counts reports them.
	Events() []string
	// OpenThread opens a counting session bound to the calling OS thread
	// (which should be locked with runtime.LockOSThread). cpu additionally
	// restricts counting to one logical CPU (-1: wherever the thread runs) —
	// for a pinned worker this yields one counter group per pinned CPU.
	// workload hints the mock backend at the planted rate row to use
	// (the kernel's component name); the perf backend ignores it.
	OpenThread(cpu int, workload string) (Session, error)
	// OpenTask opens a counting session on process pid instead of the
	// calling thread — how the external-workload executor meters a
	// launched child. The session also counts every thread and child
	// process pid creates after the open, so opening it on a child frozen
	// before its first instruction covers all of the child's work. cpu
	// and workload mean what they do for OpenThread. A task session is
	// single-use: one Start/Stop around one run of the process.
	OpenTask(pid, cpu int, workload string) (Session, error)
}

// Session counts events around one measured region. Start resets and
// enables the counters; Stop disables them and reads the scaled counts.
// A thread session may Start/Stop repeatedly (one pair per repetition); a
// task session once. Close releases the underlying resources. Poll reads
// the current repetition's cumulative counts without disabling the
// counters, so an in-trial sampler can observe event deltas while the
// measured region runs; after Stop (or Close) it returns the repetition's
// final counts, making it safe to race a trailing sampler tick against the
// worker's own Stop.
type Session interface {
	Start() error
	Stop() (Counts, error)
	Poll() (Counts, error)
	Close() error
}

// NewMeter constructs the backend a normalized Spec names. The perf backend
// fails on non-Linux hosts and on kernels that refuse self-profiling; use
// Available to probe before planning a long sweep.
func NewMeter(spec Spec) (ActivityMeter, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	switch spec.Backend {
	case BackendMock:
		return NewMock(spec.Events), nil
	default:
		return newPlatformMeter(spec.Events)
	}
}

// Available probes whether the perf backend can count on this host: it
// opens and closes one instructions counter on the calling thread. The
// error, when non-nil, explains what is missing (platform, syscall number,
// or perf_event_paranoid/CAP_PERFMON permissions).
func Available() error {
	m, err := newPlatformMeter([]string{"instructions"})
	if err != nil {
		return err
	}
	sess, err := m.OpenThread(-1, "probe")
	if err != nil {
		return err
	}
	return sess.Close()
}
