package model

import (
	"energybench/internal/harness"
	"energybench/internal/store"
)

// ReportOptions steers BuildReport. The zero value produces the classic
// nominal-activity analysis document.
type ReportOptions struct {
	// Activity selects the fit's activity source (ActivityNominal when
	// empty).
	Activity string
	// Validate forces the external-workload validation section: BuildReport
	// fails when the store holds nothing to validate. When false the section
	// still appears automatically whenever workload results are present and
	// predictable.
	Validate bool
	// Roofline forces the roofline section, failing when it cannot be built.
	// When false the section appears automatically when workload results
	// are present and placeable.
	Roofline bool
}

// Report is the full analysis document: the fitted power model and marginals
// (the historical `analyze` output, field-compatible), plus the optional
// external-workload sections that close the paper's loop — predicted-vs-
// measured validation and roofline placement.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Activity      string `json:"activity"`
	Observations  int    `json:"observations"`
	// SkippedNoCounters counts stored results dropped from a counter-based
	// fit because they carry no measured activity vector.
	SkippedNoCounters int         `json:"skipped_no_counters,omitempty"`
	Fit               *Fit        `json:"fit"`
	Marginals         []Marginal  `json:"marginals"`
	Validation        *Validation `json:"validation,omitempty"`
	Roofline          *Roofline   `json:"roofline,omitempty"`
	// ValidationErr/RooflineErr record why an automatic section was left
	// out (e.g. the workloads carry no counters under --activity=counters).
	// Explicitly requested sections fail the whole report instead.
	ValidationErr string `json:"validation_error,omitempty"`
	RooflineErr   string `json:"roofline_error,omitempty"`
}

// BuildReport fits the power model over the store's micro-benchmark results
// and, when external-workload results are present (or explicitly requested),
// validates the fit against them and places them on the measured roofline.
// It is the single analysis path shared by the local `analyze` subcommand
// and the coordinator's GET /jobs/{id}/analyze endpoint.
func BuildReport(results []harness.Result, opts ReportOptions) (*Report, error) {
	activity := opts.Activity
	if activity == "" {
		activity = ActivityNominal
	}
	rep := &Report{SchemaVersion: store.SchemaVersion, Activity: activity}
	obs, skipped, err := observations(results, activity)
	if err != nil {
		return nil, err
	}
	rep.Observations, rep.SkippedNoCounters = len(obs), skipped
	if rep.Fit, err = FitPower(obs); err != nil {
		return nil, err
	}
	rep.Marginals = Marginals(results)

	hasWorkloads := false
	for _, r := range results {
		if r.Workload != "" {
			hasWorkloads = true
			break
		}
	}
	if opts.Validate || hasWorkloads {
		v, err := Validate(rep.Fit, activity, results)
		switch {
		case err == nil:
			rep.Validation = v
		case opts.Validate:
			return nil, err
		default:
			rep.ValidationErr = err.Error()
		}
	}
	if opts.Roofline || hasWorkloads {
		rf, err := BuildRoofline(results)
		switch {
		case err == nil:
			rep.Roofline = rf
		case opts.Roofline:
			return nil, err
		default:
			rep.RooflineErr = err.Error()
		}
	}
	return rep, nil
}
