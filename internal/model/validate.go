package model

import (
	"fmt"
	"math"
	"sort"

	"energybench/internal/bench"
	"energybench/internal/harness"
)

// WorkloadValidation is one external workload configuration's
// predicted-vs-measured comparison under the fitted model: the paper's
// headline check, applied to a real application instead of a held-out
// micro-benchmark.
type WorkloadValidation struct {
	Workload  string `json:"workload"`
	Label     string `json:"label"`
	Threads   int    `json:"threads"`
	Placement string `json:"placement"`
	// Activity is the vector the prediction used (nominal: declared
	// components × threads; counters: measured characteristic-event rates).
	Activity map[bench.Component]float64 `json:"activity,omitempty"`
	// Measured vs predicted power over the workload's run, and the same
	// comparison integrated into energy over the measured wall time.
	MeasuredW        float64 `json:"measured_w,omitempty"`
	PredictedW       float64 `json:"predicted_w,omitempty"`
	PowerErrPct      float64 `json:"power_err_pct,omitempty"`
	MeasuredEnergyJ  float64 `json:"measured_energy_j,omitempty"`
	PredictedEnergyJ float64 `json:"predicted_energy_j,omitempty"`
	EnergyErrPct     float64 `json:"energy_err_pct,omitempty"`
	// Err explains why this workload could not be predicted (no declared
	// components, missing counters, a component the fit never saw). Such
	// rows stay in the report — a validation that silently drops its
	// failures would overstate its coverage — but don't join the aggregate.
	Err string `json:"error,omitempty"`
}

// Validation aggregates the per-workload comparisons. MAPEPct is the mean
// absolute power-prediction error in percent over the successfully
// predicted workloads — the single number the paper reports.
type Validation struct {
	Activity  string               `json:"activity"`
	Workloads []WorkloadValidation `json:"workloads"`
	// Predicted/Failed count the rows that did and did not produce a
	// prediction.
	Predicted     int     `json:"predicted"`
	Failed        int     `json:"failed,omitempty"`
	MAPEPct       float64 `json:"mape_pct"`
	EnergyMAPEPct float64 `json:"energy_mape_pct"`
}

// Validate predicts every external-workload result's power under the fitted
// model and reports per-workload and aggregate error. results may be a whole
// store's contents; only workload results participate. An error is returned
// only when there is nothing to validate at all — individual unpredictable
// workloads are reported in place.
func Validate(fit *Fit, activity string, results []harness.Result) (*Validation, error) {
	if fit == nil {
		return nil, fmt.Errorf("model: validation needs a fitted model")
	}
	if activity == "" {
		activity = ActivityNominal
	}
	var rows []WorkloadValidation
	for _, r := range results {
		if r.Workload == "" {
			continue
		}
		row := WorkloadValidation{
			Workload:  r.Workload,
			Label:     label(r),
			Threads:   r.Threads,
			Placement: string(r.Placement),
		}
		// The prediction uses the design row the fit was trained on.
		act, err := designRow(r, activity)
		if err == nil {
			for c := range act {
				if _, ok := fit.CoeffW[c]; !ok {
					err = fmt.Errorf("component %s was never fitted (no micro-benchmark stresses it in the store)", c)
					break
				}
			}
		}
		if err == nil && r.PowerW.Mean <= 0 {
			err = fmt.Errorf("measured power is not positive")
		}
		if err != nil {
			row.Err = err.Error()
			rows = append(rows, row)
			continue
		}
		row.Activity = act
		row.MeasuredW = r.PowerW.Mean
		row.PredictedW = fit.Predict(act)
		row.PowerErrPct = 100 * math.Abs(row.PredictedW-row.MeasuredW) / row.MeasuredW
		row.MeasuredEnergyJ = r.EnergyJ.Mean
		row.PredictedEnergyJ = row.PredictedW * r.TimeS.Mean
		if row.MeasuredEnergyJ > 0 {
			row.EnergyErrPct = 100 * math.Abs(row.PredictedEnergyJ-row.MeasuredEnergyJ) / row.MeasuredEnergyJ
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("model: the store holds no external-workload results to validate (declare workloads: in the campaign)")
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Label < rows[j].Label })
	v := &Validation{Activity: activity, Workloads: rows}
	for _, row := range rows {
		if row.Err != "" {
			v.Failed++
			continue
		}
		v.Predicted++
		v.MAPEPct += row.PowerErrPct
		v.EnergyMAPEPct += row.EnergyErrPct
	}
	if v.Predicted == 0 {
		return nil, fmt.Errorf("model: no workload could be predicted: %s", rows[0].Err)
	}
	v.MAPEPct /= float64(v.Predicted)
	v.EnergyMAPEPct /= float64(v.Predicted)
	return v, nil
}
