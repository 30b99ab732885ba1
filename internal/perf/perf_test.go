package perf

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	got, err := Spec{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if got.Backend != BackendPerf {
		t.Errorf("default backend = %q, want %q", got.Backend, BackendPerf)
	}
	if !reflect.DeepEqual(got.Events, DefaultEvents()) {
		t.Errorf("default events = %v, want %v", got.Events, DefaultEvents())
	}
}

func TestSpecNormalizeExpandsDefaultToken(t *testing.T) {
	got, err := Spec{Backend: BackendMock, Events: []string{"branches", "default", "instructions"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"branches"}, DefaultEvents()...)
	if !reflect.DeepEqual(got.Events, want) {
		t.Errorf("events = %v, want %v (default expanded in place, duplicates dropped)", got.Events, want)
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Backend: "rdpmc"},
		{Events: []string{"tlb-misses"}},
		{Backend: BackendMock, Events: []string{""}},
	}
	for _, spec := range cases {
		if _, err := spec.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): want error", spec)
		}
	}
}

func TestSpecNormalizeDedups(t *testing.T) {
	got, err := Spec{Backend: BackendMock, Events: []string{"cycles", "instructions", "cycles"}}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"cycles", "instructions"}; !reflect.DeepEqual(got.Events, want) {
		t.Errorf("events = %v, want %v", got.Events, want)
	}
}

func TestScaleCount(t *testing.T) {
	if got := scaleCount(100, 1000, 500); got != 200 {
		t.Errorf("scaleCount(100, 1000, 500) = %v, want 200", got)
	}
	if got := scaleCount(100, 1000, 1000); got != 100 {
		t.Errorf("unmultiplexed scaleCount = %v, want 100", got)
	}
	if got := scaleCount(100, 1000, 0); got != 0 {
		t.Errorf("never-scheduled scaleCount = %v, want 0", got)
	}
	c := EventCount{TimeEnabledNS: 1000, TimeRunningNS: 500}
	if !c.Multiplexed() {
		t.Error("partially-run count should report Multiplexed")
	}
	c.TimeRunningNS = 1000
	if c.Multiplexed() {
		t.Error("fully-run count should not report Multiplexed")
	}
}

// TestMockDeterministicCounts drives a mock session with an explicit clock:
// counts must be exactly planted rate × elapsed and rates recover the table.
func TestMockDeterministicCounts(t *testing.T) {
	clock := time.Unix(0, 0)
	m := NewMockWithClock([]string{"instructions", "llc-misses"}, func() time.Time { return clock })
	sess, err := m.OpenThread(3, "dram")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(250 * time.Millisecond)
	counts, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts.Values) != 2 {
		t.Fatalf("got %d values, want 2", len(counts.Values))
	}
	wantInstr := MockRate("dram", "instructions") * 0.25
	if got := counts.Values[0].Scaled; math.Abs(got-wantInstr) > 1 {
		t.Errorf("instructions = %v, want %v", got, wantInstr)
	}
	wantMiss := MockRate("dram", "llc-misses") * 0.25
	if got := counts.Values[1].Scaled; math.Abs(got-wantMiss) > 1 {
		t.Errorf("llc-misses = %v, want %v", got, wantMiss)
	}
	if counts.Values[0].Multiplexed() {
		t.Error("unmultiplexed mock count reported Multiplexed")
	}
}

// TestMockMultiplexScalingRecoversRate: with RunningFraction set the raw
// counts shrink, the session reports partial running time, and only the
// scaling correction recovers the planted rate — the same arithmetic the
// perf backend applies to genuinely multiplexed counters.
func TestMockMultiplexScalingRecoversRate(t *testing.T) {
	clock := time.Unix(100, 0)
	m := NewMockWithClock([]string{"instructions"}, func() time.Time { return clock })
	m.RunningFraction = 0.25
	sess, err := m.OpenThread(-1, "int-alu")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Second)
	counts, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	v := counts.Values[0]
	if !v.Multiplexed() {
		t.Fatal("fractional running time should report Multiplexed")
	}
	full := MockRate("int-alu", "instructions")
	if got := float64(v.Raw); math.Abs(got-full*0.25) > 1 {
		t.Errorf("raw = %v, want %v (a quarter of the planted rate)", got, full*0.25)
	}
	if math.Abs(v.Scaled-full) > full*1e-6 {
		t.Errorf("scaled = %v, want %v (planted rate recovered)", v.Scaled, full)
	}
}

func TestMockSessionMisuse(t *testing.T) {
	m := NewMock([]string{"cycles"})
	sess, err := m.OpenThread(-1, "l1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Stop(); err == nil {
		t.Error("Stop before Start should fail")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err == nil {
		t.Error("Start after Close should fail")
	}
}

func TestMockRateFallbacks(t *testing.T) {
	if MockRate("int-alu", "cycles") != mockDefaultRates["cycles"] {
		t.Error("event missing from a workload row should use the default rate")
	}
	if MockRate("no-such-workload", "instructions") != mockDefaultRates["instructions"] {
		t.Error("unknown workload should use the default rates")
	}
	// Every cataloged event has a default rate, so the mock always counts.
	for name := range eventDefs {
		if MockRate("unknown", name) <= 0 {
			t.Errorf("event %s has no positive default mock rate", name)
		}
	}
}

func TestNewMeterMockAndUnknown(t *testing.T) {
	m, err := NewMeter(Spec{Backend: BackendMock})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != BackendMock {
		t.Errorf("backend = %q, want mock", m.Name())
	}
	if !reflect.DeepEqual(m.Events(), DefaultEvents()) {
		t.Errorf("events = %v, want defaults", m.Events())
	}
	if _, err := NewMeter(Spec{Backend: "quantum"}); err == nil {
		t.Error("unknown backend should fail")
	}
}

// TestPerfBackendCountsInstructions exercises the real perf_event_open path
// when the host allows self-profiling; elsewhere it verifies the probe
// reports a useful error and skips.
func TestPerfBackendCountsInstructions(t *testing.T) {
	if err := Available(); err != nil {
		t.Skipf("perf backend unavailable on this host: %v", err)
	}
	m, err := NewMeter(Spec{Backend: BackendPerf, Events: []string{"instructions", "cycles"}})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := m.OpenThread(-1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	// Any nontrivial user-space loop retires instructions.
	sum := 0
	for i := 0; i < 1_000_000; i++ {
		sum += i * i
	}
	counts, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	_ = sum
	if len(counts.Values) != 2 {
		t.Fatalf("got %d values, want 2", len(counts.Values))
	}
	if counts.Values[0].Scaled <= 0 {
		t.Errorf("instructions = %v, want > 0 after a million-iteration loop", counts.Values[0].Scaled)
	}
	if counts.Values[0].TimeEnabledNS == 0 {
		t.Error("time_enabled should be nonzero")
	}

	// A second Start/Stop pair on the same session must reset cleanly.
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	counts2, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if counts2.Values[0].Scaled > counts.Values[0].Scaled {
		t.Errorf("near-empty second region counted %v instructions, more than the loop's %v — reset failed",
			counts2.Values[0].Scaled, counts.Values[0].Scaled)
	}
}

// TestMockPollMidRepetition: Poll observes counts accumulating while the
// session runs, and freezes at the Stop value afterwards — the contract the
// in-trial sampler depends on.
func TestMockPollMidRepetition(t *testing.T) {
	clock := time.Unix(0, 0)
	m := NewMockWithClock([]string{"instructions"}, func() time.Time { return clock })
	sess, err := m.OpenThread(0, "int-alu")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Before any Start: zeros, not an error.
	c, err := sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Values[0].Scaled; got != 0 {
		t.Errorf("pre-start Poll = %v, want 0", got)
	}

	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(100 * time.Millisecond)
	c, err = sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	want := MockRate("int-alu", "instructions") * 0.1
	if got := c.Values[0].Scaled; math.Abs(got-want) > 1 {
		t.Errorf("mid-rep Poll = %v, want %v", got, want)
	}

	clock = clock.Add(100 * time.Millisecond)
	stopC, err := sess.Stop()
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(time.Hour) // time after Stop must not count
	c, err = sess.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Values[0].Scaled, stopC.Values[0].Scaled; got != want {
		t.Errorf("post-stop Poll = %v, want frozen Stop value %v", got, want)
	}
	sess.Close()
	if c, err = sess.Poll(); err != nil {
		t.Fatalf("Poll after Close: %v", err)
	}
	if got, want := c.Values[0].Scaled, stopC.Values[0].Scaled; got != want {
		t.Errorf("post-close Poll = %v, want frozen Stop value %v", got, want)
	}
}

// TestMockOpenTask pins the OpenTask the external-workload executor
// attaches with: an OpenTask session must be a full mock session —
// planted rate × elapsed time under the workload hint — so extern trials
// against the mock backend recover the same rates kernel trials do.
func TestMockOpenTask(t *testing.T) {
	now := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	m := NewMockWithClock([]string{"instructions", "llc-misses"}, clock)

	var tm ActivityMeter = m
	s, err := tm.OpenTask(4321, -1, "int-alu")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	now = now.Add(250 * time.Millisecond)
	counts, err := s.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts.Values) != 2 {
		t.Fatalf("counted %d events, want 2", len(counts.Values))
	}
	for i, ev := range []string{"instructions", "llc-misses"} {
		want := MockRate("int-alu", ev) * 0.25
		if got := counts.Values[i].Scaled; math.Abs(got-want) > want*1e-9+1 {
			t.Errorf("%s = %g, want %g (planted rate × 0.25 s)", ev, got, want)
		}
	}
}
