// Package extwork runs external applications as metered regions: the
// execution tier next to the kernel executors that closes the paper's
// validation loop by measuring *real* workloads under the same meters,
// counters, placements, and store keys as the micro-benchmarks.
//
// A campaign's workloads: entries (extwork.Workload) resolve their launch
// spec (Workload.Spec), and the campaign's grid expands it into
// harness.Trial values carrying that ExternSpec instead of a kernel; the
// ExternExecutor builds the workload once, then per repetition launches the
// child frozen at its exec, before its first instruction (on Linux the
// child traces itself, stops with SIGTRAP once exec'd, and is detached
// with SIGSTOP, so launching needs PTRACE_TRACEME). The still single-task
// child is pinned to the trial's CPU assignment and gets one inherited
// perf counter session, so everything it goes on to create is pinned and
// counted too. The shared measurement core, harness.Measure, then meters
// and samples the region exactly as it does kernel threads: it reads the
// meter, resumes the child (SIGCONT), waits for it to exit, and reads the
// meter again. The child leads its own process group, and a timeout kills
// the whole group. Timeouts, crashes, and unexpected exit statuses surface
// as ordinary per-trial errors, so the Scheduler wraps them in *TrialError
// and releases the trial's CPU leases exactly as for kernel trials. Results carry the workload name into the
// store's "|w:" key dimension (schema v5); model validation and the
// roofline report in internal/model consume them from there.
package extwork
