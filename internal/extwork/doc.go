// Package extwork runs external applications as metered regions: the
// execution tier next to the kernel executors that closes the paper's
// validation loop by measuring *real* workloads under the same meters,
// counters, placements, and store keys as the micro-benchmarks.
//
// A campaign's workloads: entries (extwork.Workload) resolve their launch
// spec (Workload.Spec), and the campaign's grid expands it into
// harness.Trial values carrying that ExternSpec instead of a kernel; the
// ExternExecutor builds the workload once, then per repetition launches the
// child frozen (SIGSTOP), pins it to the trial's CPU assignment, and
// attaches per-task perf counters (inherited by threads the child spawns
// later, with a process-wide fallback). The shared measurement core,
// harness.Measure, then meters and samples the region exactly as it does
// kernel threads: it reads the meter, resumes the child (SIGCONT), waits
// for it to exit, and reads the meter again. Timeouts, crashes, and
// unexpected exit statuses surface as ordinary per-trial errors, so the
// Scheduler wraps them in *TrialError and releases the trial's CPU leases
// exactly as for kernel trials. Results carry the workload name into the
// store's "|w:" key dimension (schema v5); model validation and the
// roofline report in internal/model consume them from there.
package extwork
