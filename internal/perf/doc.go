// Package perf measures per-thread hardware activity with performance
// counters, turning "this trial ran kernel X" into "this trial retired N
// instructions and missed the L1 M times per second". The source paper's
// power model regresses energy against *measured* per-component activity
// factors, not workload labels; this package supplies those measurements.
//
// Two backends implement the ActivityMeter interface: a Linux
// perf_event_open backend (raw syscall; one grouped FD set per worker
// thread, or one inherited FD per event on an external process; counts
// read with time_enabled/time_running so multiplexed counters are scaled)
// and a deterministic mock whose planted per-component event rates let CI
// and non-Linux hosts exercise the entire counters-to-coefficients
// pipeline.
package perf
