package harness

import (
	"strings"
	"testing"
	"time"

	"energybench/internal/bench"
)

func TestExternSpecValidate(t *testing.T) {
	good := ExternSpec{Workload: "stress", Exec: []string{"./stress"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*ExternSpec)
		wantErr string
	}{
		{"no name", func(s *ExternSpec) { s.Workload = "" }, "no workload name"},
		{"pipe in name", func(s *ExternSpec) { s.Workload = "a|b" }, "may not contain"},
		{"slash in name", func(s *ExternSpec) { s.Workload = "a/b" }, "may not contain"},
		{"no exec", func(s *ExternSpec) { s.Exec = nil }, "no exec command"},
		{"empty argv0", func(s *ExternSpec) { s.Exec = []string{""} }, "no exec command"},
		{"exit out of range", func(s *ExternSpec) { s.ExpectExit = 256 }, "outside 0..255"},
		{"negative timeout", func(s *ExternSpec) { s.Timeout = -time.Second }, "negative timeout"},
		{"unnamed component", func(s *ExternSpec) {
			s.Components = map[bench.Component]float64{"": 1}
		}, "unnamed component"},
		{"negative weight", func(s *ExternSpec) {
			s.Components = map[bench.Component]float64{"int-alu": -1}
		}, "negative weight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted, want error containing %q", tc.wantErr)
			}
			if got := err.Error(); !strings.Contains(got, tc.wantErr) {
				t.Errorf("error %q does not contain %q", got, tc.wantErr)
			}
		})
	}
}

// TestExternKeyCompat pins the key grammar both ways: a workload-less key
// must stay byte-identical to the historical six-field form (so every
// pre-v5 store and resume file remains valid), and an extern trial's key
// must append exactly "|w:<workload>" and match the key of the result the
// executor produces for it.
func TestExternKeyCompat(t *testing.T) {
	kernel := Trial{Spec: bench.Spec{Name: "int-alu"}, Threads: 2, Iters: 1000, Placement: PlaceNone}
	if got, want := kernel.Key("mock"), "int-alu||t2+0|none|mock|i1000+0"; got != want {
		t.Errorf("kernel key = %q, want the historical six-field form %q", got, want)
	}

	ext := Trial{
		Spec: bench.Spec{Name: "stress", Iters: 1}, Threads: 2, Iters: 1,
		Placement: PlaceNone,
		Extern:    &ExternSpec{Workload: "stress", Exec: []string{"./stress"}},
	}
	if got, want := ext.Key("mock"), "stress||t2+0|none|mock|i1+0|w:stress"; got != want {
		t.Errorf("extern key = %q, want %q", got, want)
	}
	res := Result{Spec: "stress", Threads: 2, Iters: 1, Placement: PlaceNone,
		Meter: "mock", Workload: "stress"}
	if got, want := ResultKey(res), ext.Key("mock"); got != want {
		t.Errorf("ResultKey %q != Trial.Key %q", got, want)
	}
}

// parseKeyDimensionCases cover every trailing-dimension combination;
// FuzzParseKey seeds from them too.
var parseKeyDimensionCases = []Result{
	{Spec: "stress", Threads: 1, Iters: 1, Placement: PlaceNone, Meter: "mock",
		Workload: "stress"},
	{Spec: "stress", Threads: 4, Iters: 1, Placement: PlaceCompact, Meter: "rapl",
		Workload: "stress", Host: "h1"},
	{Spec: "app", Threads: 2, Iters: 1, Placement: PlaceScatter, Meter: "mock",
		Workload: "app", Host: "h2", Microarch: "Zen 3"},
	{Spec: "int-alu", Threads: 2, Iters: 500, Placement: PlaceNone, Meter: "mock",
		Host: "h3", Microarch: "Icelake"},
}

// TestParseKeyWorkloadDimension round-trips every trailing-dimension
// combination through ParseKey and rejects malformed trailers: the store's
// pushdown filters depend on parsing "|w:" without reading the record.
func TestParseKeyWorkloadDimension(t *testing.T) {
	for _, r := range parseKeyDimensionCases {
		key := ResultKey(r)
		kf, ok := ParseKey(key)
		if !ok {
			t.Errorf("ParseKey(%q) failed", key)
			continue
		}
		if kf.Workload != r.Workload || kf.Host != r.Host || kf.Microarch != r.Microarch {
			t.Errorf("ParseKey(%q): w=%q h=%q u=%q, want w=%q h=%q u=%q",
				key, kf.Workload, kf.Host, kf.Microarch, r.Workload, r.Host, r.Microarch)
		}
		if kf.Spec != r.Spec || kf.Threads != r.Threads {
			t.Errorf("ParseKey(%q): base fields %+v do not match %+v", key, kf, r)
		}
	}

	// Malformed trailers must be rejected whole, never half-parsed: empty
	// values, dimensions out of the strict w: → h: → u: order, duplicates,
	// and a u: with no preceding h:.
	base := "stress||t1+0|none|mock|i1+0"
	for _, bad := range []string{
		base + "|w:",
		base + "|w:a|w:b",
		base + "|h:h1|w:a",
		base + "|u:zen3",
		base + "|w:a|u:zen3",
		base + "|w:a|h:h1|u:zen3|x:extra",
		base + "|w:a|h:",
		base + "|w:a|h:h1|u:",
	} {
		if _, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) = ok, want rejection", bad)
		}
	}
}
