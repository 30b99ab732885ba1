// Package harness explores a benchmark space through three layers connected
// by small interfaces: a planner that expands a Space into an explicit
// ordered []Trial (plan.go), an Executor that runs one trial (execute.go,
// subprocess.go), and a ResultSink pipeline that streams each completed
// configuration out as it finishes (sink.go). The Scheduler (scheduler.go)
// is the one dispatcher between plan and executor in every tier: it leases
// CPUs to pinned trials, records a failed trial as a *TrialError and keeps
// sweeping. Measure (measure.go) is the one measured-region core every
// executor shares — warm-up, CV-converged repetitions, the meter reads,
// sampling, the meter-window power rule, summaries and EDP/EDDP — so an
// executor supplies only each repetition's Region: worker threads parked
// behind a barrier here, a frozen child process in internal/extwork.
// Configurations can pair two heterogeneous specs (co-runs) to measure
// SMT/CMP interference, the core scenario of the MICRO 2012 methodology.
//
// Every configuration is identified by a stable key
// (spec|specB|tN+M|placement|meter|iN+M, see plan.go) that the store layer
// dedupes and resumes on. Fleet results carry an optional |h:host|u:microarch
// suffix — ResultKey builds it, StripHostKey removes it — so one central
// store can hold the same configuration measured on many machines. The full
// key grammar is documented in docs/WIRE.md.
package harness
