package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"energybench/internal/campaign"
	"energybench/internal/fleet"
	"energybench/internal/harness"
	"energybench/internal/store"
)

// lookCmd resolves a helper binary the workload tests launch as a child,
// skipping the test where it is missing.
func lookCmd(t *testing.T, name string) string {
	t.Helper()
	path, err := exec.LookPath(name)
	if err != nil {
		t.Skipf("%s not available: %v", name, err)
	}
	return path
}

// writeCampaign writes a campaign file into dir and loads it back.
func writeCampaign(t *testing.T, dir, name, yaml string) (string, *campaign.Campaign) {
	t.Helper()
	path := filepath.Join(dir, name+".yaml")
	if err := os.WriteFile(path, []byte(yaml), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := campaign.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, c
}

// storedRecords reads every record of the store at path.
func storedRecords(t *testing.T, path string) []store.Record {
	t.Helper()
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var recs []store.Record
	for rec, err := range st.Query(store.Filter{}) {
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestFailedTrialSameInEveryTier runs one campaign whose plan puts a failing
// trial (a workload exec'ing a missing binary) before good ones, three
// ways: in-process `run`, `run` under the subprocess executor, and a fleet
// agent's batch runner. Every tier must continue past the failure, store
// every other trial, and report the failure as a *harness.TrialError for
// exactly that trial — one dispatcher, one failure mode.
func TestFailedTrialSameInEveryTier(t *testing.T) {
	ok := lookCmd(t, "true")
	dir := t.TempDir()
	ghost := filepath.Join(dir, "no-such-binary")
	campaignFor := func(executor, storePath string) string {
		return fmt.Sprintf(`
name: tiers-%s
meter: mock
executor: %s
store: %s
spaces:
  - specs: [int-alu]
    threads: [1, 2]
    reps: 1
    warmup: 0
    iter_scale: 0.01
workloads:
  - name: ghost
    exec: [%s]
  - name: ok
    exec: [%s]
`, executor, executor, storePath, ghost, ok)
	}
	checkErr := func(tier string, err error) {
		t.Helper()
		var te *harness.TrialError
		if !errors.As(err, &te) {
			t.Fatalf("%s: error %v does not unwrap to a *harness.TrialError", tier, err)
		}
		if te.Trial.Extern == nil || te.Trial.Extern.Workload != "ghost" ||
			!strings.Contains(te.Err.Error(), `launching workload "ghost"`) {
			t.Errorf("%s: failure blamed on the wrong trial: %v", tier, te)
		}
	}

	var want []string
	stores := map[string]string{}
	for _, executor := range []string{campaign.ExecutorInProcess, campaign.ExecutorSubprocess} {
		storePath := filepath.Join(dir, executor+".jsonl")
		path, c := writeCampaign(t, dir, executor, campaignFor(executor, storePath))
		if want == nil {
			plan, err := c.Plan()
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range plan {
				if tr.Extern == nil || tr.Extern.Workload != "ghost" {
					want = append(want, tr.Key(c.Meter))
				}
			}
			sort.Strings(want)
		}
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"run", "--campaign=" + path}, &stdout, &stderr)
		if err == nil {
			t.Fatalf("%s run succeeded despite a failed trial; it must exit non-zero", executor)
		}
		checkErr(executor+" run", err)
		stores[executor] = storePath
	}

	storePath := filepath.Join(dir, "agent.jsonl")
	_, c := writeCampaign(t, dir, "agent", campaignFor(campaign.ExecutorInProcess, storePath))
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sink := store.NewSink(storePath)
	batch := fleet.Batch{V: fleet.ProtocolVersion, JobID: "j", BatchID: "b", Trials: plan, Exec: fleet.ExecFromCampaign(c)}
	checkErr("agent batch", localBatchRunner(func(string, ...any) {}).RunBatch(context.Background(), batch, sink))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	stores["agent"] = storePath

	for tier, path := range stores {
		var got []string
		for _, rec := range storedRecords(t, path) {
			got = append(got, rec.Key)
		}
		sort.Strings(got)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s stored keys\n%s\nwant every trial but the failed one\n%s",
				tier, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestExternTrialsRecordSeries: a campaign's sample_interval reaches its
// external workloads too, so every measured sample of a workload trial
// carries a time-resolved series and `analyze --phases` reports each one.
func TestExternTrialsRecordSeries(t *testing.T) {
	sleep := lookCmd(t, "sleep")
	dir := t.TempDir()
	db := filepath.Join(dir, "series.jsonl")
	path, _ := writeCampaign(t, dir, "series", fmt.Sprintf(`
name: extern-series
meter: mock
sample_interval: 5ms
store: %s
workloads:
  - name: nap
    exec: [%s, "0.03"]
    threads: [1, 2]
    reps: 2
`, db, sleep))
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"run", "--campaign=" + path}, &stdout, &stderr); err != nil {
		t.Fatalf("run failed: %v\nstderr: %s", err, stderr.String())
	}
	recs := storedRecords(t, db)
	if len(recs) != 2 {
		t.Fatalf("stored %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Result.Workload != "nap" || len(rec.Result.Samples) != 2 {
			t.Fatalf("record %s: workload %q, %d samples", rec.Key, rec.Result.Workload, len(rec.Result.Samples))
		}
		for i, s := range rec.Result.Samples {
			if s.Series == nil || len(s.Series.Points) == 0 || s.Series.IntervalS != 0.005 {
				t.Errorf("record %s sample %d: series %+v, want points at 5 ms", rec.Key, i, s.Series)
			}
		}
	}

	stdout.Reset()
	if err := run(context.Background(), []string{"analyze", "--db=" + db, "--phases"}, &stdout, &stderr); err != nil {
		t.Fatalf("analyze --phases: %v", err)
	}
	var doc phaseAnalysis
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Reports) != 4 {
		t.Fatalf("%d phase reports, want one per measured sample (4)", len(doc.Reports))
	}
	for _, r := range doc.Reports {
		if !strings.HasSuffix(r.Key, "|w:nap") || len(r.Phases) == 0 {
			t.Errorf("report %s: %d phases, want a workload key and at least one phase", r.Key, len(r.Phases))
		}
	}
}
