package extwork

import (
	"math"
	"strings"
	"testing"
)

// TestWorkloadTrialsRejectBadThresholds: a workload's own cv_target and
// max_cv must be non-negative and finite, as a kernel space's are; Go
// callers can set values a campaign file cannot carry.
func TestWorkloadTrialsRejectBadThresholds(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, tc := range []struct {
		name            string
		cvTarget, maxCV *float64
		wantErr         string
	}{
		{"NaN cv target", f(math.NaN()), nil, "cv target must be non-negative and finite, got NaN"},
		{"infinite cv target", f(math.Inf(1)), nil, "cv target must be non-negative and finite, got +Inf"},
		{"negative cv target", f(-0.1), nil, "cv target must be non-negative and finite, got -0.1"},
		{"NaN max cv", nil, f(math.NaN()), "max cv must be non-negative and finite, got NaN"},
		{"infinite max cv", nil, f(math.Inf(1)), "max cv must be non-negative and finite, got +Inf"},
		{"negative max cv", nil, f(-1), "max cv must be non-negative and finite, got -1"},
	} {
		w := Workload{Name: "app", Exec: []string{"./app"}, CVTarget: tc.cvTarget, MaxCV: tc.maxCV}
		_, err := w.Trials()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	w := Workload{Name: "app", Exec: []string{"./app"}, CVTarget: f(0), MaxCV: f(0)}
	if trials, err := w.Trials(); err != nil || len(trials) != 1 {
		t.Errorf("explicit zeros: %d trials, err %v; want one trial", len(trials), err)
	}
}
