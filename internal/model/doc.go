// Package model decomposes measured power into the paper's linear model
// P = P_static + Σ_c a_c · activity_c via ordinary least squares over a set
// of micro-benchmark measurements, and derives the CMP-vs-SMT marginal
// energy and co-run interference metrics that are the MICRO 2012 paper's
// headline analyses.
//
// A result's design row is its activity vector: harness.Result.Activity
// under the nominal source, or the measured event rates of the same
// components under the counter source. One function derives it for kernel
// and workload results alike, so the fit (FromResults, BuildReport) and
// Validate regress and predict on the same row, and the fit's Leverage
// scores the adaptive planner's candidates (harness.Trial.Activity) in
// that basis.
package model
