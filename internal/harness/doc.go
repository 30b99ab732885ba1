// Package harness runs planned trials through three layers connected by
// small interfaces: the Trial, a serializable unit of work with its identity
// and configuration key (trial.go), an Executor that runs one trial
// (execute.go, subprocess.go), and a ResultSink pipeline that streams each
// completed configuration out as it finishes (sink.go). It does not plan:
// internal/campaign expands a campaign's spaces and workloads into the
// ordered []Trial. The Scheduler (scheduler.go) is the one dispatcher
// between plan and executor in every tier: it leases CPUs to pinned trials,
// records a failed trial as a *TrialError and keeps sweeping. Measure (measure.go) is the one measured-region core every
// executor shares — warm-up, CV-converged repetitions, the meter reads,
// sampling, the meter-window power rule, summaries and EDP/EDDP — so an
// executor supplies only each repetition's Region: one kernel call per
// unit of workers that live for the trial here (the caller runs unit 0),
// a frozen child process in internal/extwork.
// Configurations can pair two heterogeneous specs (co-runs) to measure
// SMT/CMP interference, the core scenario of the MICRO 2012 methodology.
//
// A trial maps to the identity of the result it will produce in one place
// (Trial.result, trial.go). From it come the stable configuration key
// (spec|specB|tN+M|placement|meter|iN+M: Trial.Key is ResultKey of that
// result), which the store layer dedupes and resumes on, and the nominal
// activity vector Result.Activity/Trial.Activity — the one design row of
// the paper's power model, which Measure hands a load-aware meter and the
// model and adaptive planner fit and score on. Fleet results carry an
// optional |h:host|u:microarch suffix — ResultKey builds it, StripHostKey
// removes it — so one central store can hold the same configuration
// measured on many machines. The full key grammar is documented in
// docs/WIRE.md.
package harness
