package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/stats"
	"energybench/internal/store"
)

// mkStoreResult is a minimal stored result for analyze-level tests.
func mkStoreResult(spec string, threads int) harness.Result {
	return harness.Result{
		Spec:      spec,
		Component: "int-alu",
		Threads:   threads,
		Iters:     1000,
		Placement: harness.PlaceNone,
		Meter:     "mock",
		Samples:   []harness.Sample{{EnergyJ: 10, TimeS: 1, PowerW: 10}},
		EnergyJ:   stats.Summary{N: 1, Mean: 10},
		TimeS:     stats.Summary{N: 1, Mean: 1},
		PowerW:    stats.Summary{N: 1, Mean: 10},
	}
}

// TestRunSampleIntervalStoresSeries is the acceptance-criteria pipeline test:
// a `run --sample-interval --meter=mock --store` sweep must persist schema-v3
// records whose samples each carry a time-resolved series, with a point count
// consistent with the repetition's meter window over the interval. Bounds are
// generous — on a loaded single-CPU CI host the sampler goroutine competes
// with the spinning kernel and ticks coalesce — but the structure is exact.
func TestRunSampleIntervalStoresSeries(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "sampled.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{
		"run",
		"--meter=mock", "--mock-watts=42",
		"--specs=int-alu", "--threads=1", "--reps=2", "--warmup=0",
		"--iter-scale=10", // ~75 ms per rep: several 10 ms ticks
		"--sample-interval=10ms",
		"--store=" + dbPath,
	}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run failed: %v\nstderr: %s", err, stderr.String())
	}
	recs, err := loadStore(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("stored %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.V != store.SchemaVersion {
		t.Errorf("record schema = %d, want %d", rec.V, store.SchemaVersion)
	}
	if rec.Result.SampleInterval != 10*time.Millisecond {
		t.Errorf("SampleInterval = %v, want 10ms", rec.Result.SampleInterval)
	}
	if len(rec.Result.Samples) != 2 {
		t.Fatalf("stored %d samples, want 2", len(rec.Result.Samples))
	}
	for i, s := range rec.Result.Samples {
		if s.Series == nil {
			t.Fatalf("sample %d has no series", i)
		}
		if s.Series.IntervalS != 0.01 {
			t.Errorf("sample %d IntervalS = %v, want 0.01", i, s.Series.IntervalS)
		}
		n := len(s.Series.Points)
		if n < 1 {
			t.Fatalf("sample %d series is empty", i)
		}
		// Upper bound: one point per interval plus the final flush and slack.
		if maxPts := int(s.MeterTimeS/0.01) + 2; n > maxPts {
			t.Errorf("sample %d has %d points over a %.3fs window, want at most %d", i, n, s.MeterTimeS, maxPts)
		}
		for j, pt := range s.Series.Points {
			if pt.TS <= 0 || pt.TS > s.MeterTimeS+0.01 {
				t.Errorf("sample %d point %d TS = %v outside (0, %v]", i, j, pt.TS, s.MeterTimeS+0.01)
			}
			if math.Abs(pt.PowerW-42) > 42*0.05 {
				t.Errorf("sample %d point %d power = %v W, want ~42 (constant mock)", i, j, pt.PowerW)
			}
		}
	}
}

// plantedSeriesResult builds a result whose single sample carries a
// deterministic two-regime series: highW for the first half of the points,
// lowW after, on a fixed interval.
func plantedSeriesResult(points int, intervalS, highW, lowW float64) harness.Result {
	pts := make([]meter.SeriesPoint, points)
	for i := range pts {
		w := highW
		if i >= points/2 {
			w = lowW
		}
		ts := float64(i+1) * intervalS
		pts[i] = meter.SeriesPoint{TS: ts, DomainUJ: []uint64{uint64(w * intervalS * 1e6)}, PowerW: w}
	}
	r := mkStoreResult("int-alu", 1)
	r.SampleInterval = time.Duration(intervalS * float64(time.Second))
	r.Samples = []harness.Sample{{
		EnergyJ: (highW + lowW) / 2 * float64(points) * intervalS,
		TimeS:   float64(points) * intervalS,
		PowerW:  (highW + lowW) / 2,
		Series: &meter.Series{
			StartAt:   time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
			IntervalS: intervalS,
			Points:    pts,
		},
	}}
	return r
}

// TestAnalyzePhasesFindsPlantedBoundary is the acceptance-criteria analysis
// test: a stored series switching 42 W → 20 W exactly halfway must segment
// into two phases whose boundary lands within one interval of the plant.
func TestAnalyzePhasesFindsPlantedBoundary(t *testing.T) {
	const (
		points   = 20
		interval = 0.01
	)
	dbPath := filepath.Join(t.TempDir(), "planted.jsonl")
	appendStore(t, dbPath, plantedSeriesResult(points, interval, 42, 20))
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"analyze", "--db=" + dbPath, "--phases"}, &stdout, &stderr); err != nil {
		t.Fatalf("analyze --phases failed: %v\nstderr: %s", err, stderr.String())
	}
	var doc struct {
		SchemaVersion int `json:"schema_version"`
		Reports       []struct {
			Rep    int `json:"rep"`
			Points int `json:"points"`
			Phases []struct {
				StartS float64 `json:"start_s"`
				EndS   float64 `json:"end_s"`
				MeanW  float64 `json:"mean_w"`
			} `json:"phases"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\noutput: %.500s", err, stdout.String())
	}
	if doc.SchemaVersion != store.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", doc.SchemaVersion, store.SchemaVersion)
	}
	if len(doc.Reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(doc.Reports))
	}
	rep := doc.Reports[0]
	if rep.Points != points {
		t.Errorf("report covers %d points, want %d", rep.Points, points)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("segmented into %d phases, want 2: %+v", len(rep.Phases), rep.Phases)
	}
	// Planted boundary: last 42 W point at t = 10·interval, first 20 W point
	// at t = 11·interval.
	wantBoundary := float64(points/2+1) * interval
	if diff := math.Abs(rep.Phases[1].StartS - wantBoundary); diff > interval {
		t.Errorf("phase boundary at %v s, want within one interval of %v s", rep.Phases[1].StartS, wantBoundary)
	}
	if math.Abs(rep.Phases[0].MeanW-42) > 1e-9 || math.Abs(rep.Phases[1].MeanW-20) > 1e-9 {
		t.Errorf("phase means = %v/%v W, want 42/20", rep.Phases[0].MeanW, rep.Phases[1].MeanW)
	}
}

// TestAnalyzePhasesErrorsWithoutSeries: a store with no time-resolved series
// must produce an actionable error, not an empty document.
func TestAnalyzePhasesErrorsWithoutSeries(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "noseries.jsonl")
	appendStore(t, dbPath, mkStoreResult("int-alu", 1))
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"analyze", "--db=" + dbPath, "--phases"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "sample-interval") {
		t.Errorf("err = %v, want a hint to rerun with --sample-interval", err)
	}
}

// TestMockScheduleRequiresMockMeter: a power schedule only makes sense on the
// mock backend; pairing it with rapl must fail fast.
func TestMockScheduleRequiresMockMeter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"run", "--meter=rapl", "--mock-schedule=0.1:20", "--specs=int-alu", "--threads=1"}
	err := run(context.Background(), args, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "--mock-schedule requires --meter=mock") {
		t.Errorf("err = %v, want a --mock-schedule/--meter mismatch error", err)
	}
}

func TestParseMockSchedule(t *testing.T) {
	cases := []struct {
		name, in string
		want     []meter.MockStep
		wantErr  bool
	}{
		{"empty", "", nil, false},
		{"single", "0.05:20", []meter.MockStep{{AtS: 0.05, Watts: 20}}, false},
		{"multi", "0.05:60,0.1:20", []meter.MockStep{{AtS: 0.05, Watts: 60}, {AtS: 0.1, Watts: 20}}, false},
		{"spaces", " 0.05:60 , 0.1:20 ", []meter.MockStep{{AtS: 0.05, Watts: 60}, {AtS: 0.1, Watts: 20}}, false},
		{"no colon", "0.05", nil, true},
		{"bad offset", "x:20", nil, true},
		{"bad watts", "0.05:y", nil, true},
		{"negative watts", "0.05:-3", nil, true},
		{"non-increasing", "0.1:20,0.1:30", nil, true},
		{"decreasing", "0.2:20,0.1:30", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseMockSchedule(tc.in)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parseMockSchedule(%q) = %v, want error", tc.in, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseMockSchedule(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("step %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}
