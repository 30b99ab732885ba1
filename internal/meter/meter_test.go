package meter

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic mock readings.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// deltaJ sums DeltaPerDomain over every domain, as a sample's energy does.
func deltaJ(m EnergyMeter, start, end Reading) (float64, error) {
	per, err := DeltaPerDomain(m, start, end)
	var total float64
	for _, j := range per {
		total += j
	}
	return total, err
}

func TestMockAccumulatesPowerOverTime(t *testing.T) {
	clk := newFakeClock()
	m := NewMockWithClock(50, 0, clk.now) // 50 W, no wrap

	r0, err := m.Read()
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	r1, err := m.Read()
	if err != nil {
		t.Fatal(err)
	}
	j, err := deltaJ(m, r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-100) > 1e-6 { // 50 W × 2 s
		t.Errorf("Delta = %v J, want 100", j)
	}
}

func TestMockDomainsStable(t *testing.T) {
	m := NewMock(42)
	d1, d2 := m.Domains(), m.Domains()
	if len(d1) != 1 || len(d2) != 1 || d1[0] != d2[0] {
		t.Errorf("Domains not stable: %v vs %v", d1, d2)
	}
	if d1[0].MaxRangeMicroJ == 0 {
		t.Error("default mock should have a non-zero wrap range")
	}
}

func TestDeltaWraparound(t *testing.T) {
	// 100 W with a 150 µJ counter range: the counter wraps every 1.5 µs of
	// modeled time, so a 2 µs window must unwrap exactly once.
	clk := newFakeClock()
	m := NewMockWithClock(100, 150, clk.now)

	clk.advance(1 * time.Microsecond) // counter at 100 µJ
	r0, _ := m.Read()
	clk.advance(1 * time.Microsecond) // raw 200 µJ → wraps to 50 µJ
	r1, _ := m.Read()
	if r1.Counters[0] >= r0.Counters[0] {
		t.Fatalf("test setup broken: counter did not wrap (%d -> %d)", r0.Counters[0], r1.Counters[0])
	}
	j, err := deltaJ(m, r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	// (150-100) + 50 = 100 µJ = 1e-4 J
	if math.Abs(j-1e-4) > 1e-12 {
		t.Errorf("wrapped Delta = %v J, want 1e-4", j)
	}
}

func TestDeltaWraparoundArithmetic(t *testing.T) {
	tests := []struct {
		name     string
		maxRange uint64
		start    uint64
		end      uint64
		wantJ    float64
		wantErr  bool
	}{
		{"forward", 1000, 100, 700, 600e-6, false},
		{"no-movement", 1000, 500, 500, 0, false},
		{"wrap", 1000, 900, 100, 200e-6, false},
		{"wrap-to-zero", 1000, 999, 0, 1e-6, false},
		{"backwards-no-range", 0, 900, 100, 0, true},
		{"full-range-consumed", 1000, 0, 0, 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := &Mock{PowerWatts: 1, MaxRangeMicroJ: tc.maxRange}
			r0 := Reading{Counters: []uint64{tc.start}}
			r1 := Reading{Counters: []uint64{tc.end}}
			j, err := deltaJ(m, r0, r1)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(j-tc.wantJ) > 1e-15 {
				t.Errorf("deltaJ(%d -> %d, range %d) = %v J, want %v",
					tc.start, tc.end, tc.maxRange, j, tc.wantJ)
			}
		})
	}
}

// twoDomainMeter exercises per-domain deltas with mixed wrap behavior.
type twoDomainMeter struct{}

func (twoDomainMeter) Name() string { return "two" }
func (twoDomainMeter) Domains() []Domain {
	return []Domain{{Name: "pkg-0", MaxRangeMicroJ: 1000}, {Name: "pkg-1", MaxRangeMicroJ: 1000}}
}
func (twoDomainMeter) Read() (Reading, error) { return Reading{}, nil }

func TestDeltaPerDomain(t *testing.T) {
	m := twoDomainMeter{}
	start := Reading{Counters: []uint64{100, 900}}
	end := Reading{Counters: []uint64{700, 100}} // pkg-1 wraps: (1000-900)+100 = 200
	per, err := DeltaPerDomain(m, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 {
		t.Fatalf("got %d per-domain deltas, want 2", len(per))
	}
	if math.Abs(per[0]-600e-6) > 1e-15 || math.Abs(per[1]-200e-6) > 1e-15 {
		t.Errorf("per-domain deltas = %v, want [600e-6 200e-6]", per)
	}
	total, err := deltaJ(m, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-800e-6) > 1e-15 {
		t.Errorf("Delta = %v, want sum of domains 800e-6", total)
	}
}

func TestDeltaCounterCountMismatch(t *testing.T) {
	m := NewMock(1)
	good, _ := m.Read()
	bad := Reading{Counters: []uint64{1, 2}}
	if _, err := deltaJ(m, good, bad); err == nil {
		t.Error("want error for mismatched counter count, got nil")
	}
}

// writeRAPLDomain lays out one powercap domain directory in a fake sysfs.
func writeRAPLDomain(t *testing.T, root, dir, name string, energy, maxRange uint64) {
	t.Helper()
	d := filepath.Join(root, dir)
	if err := os.MkdirAll(d, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"name":                name + "\n",
		"energy_uj":           strconv.FormatUint(energy, 10) + "\n",
		"max_energy_range_uj": strconv.FormatUint(maxRange, 10) + "\n",
	}
	for f, content := range files {
		if err := os.WriteFile(filepath.Join(d, f), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRAPLDiscoversPackagesSkipsSubdomains(t *testing.T) {
	root := t.TempDir()
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 1_000_000, 262_143_328_850)
	writeRAPLDomain(t, root, "intel-rapl:1", "package-1", 2_000_000, 262_143_328_850)
	writeRAPLDomain(t, root, "intel-rapl:0:0", "core", 500_000, 65_712_999_613) // must be skipped
	if err := os.MkdirAll(filepath.Join(root, "dtpm"), 0o755); err != nil {     // unrelated powercap entry
		t.Fatal(err)
	}

	r, err := NewRAPL(root)
	if err != nil {
		t.Fatal(err)
	}
	doms := r.Domains()
	if len(doms) != 2 {
		t.Fatalf("got %d domains (%v), want 2 packages", len(doms), doms)
	}
	if doms[0].Name != "package-0" || doms[1].Name != "package-1" {
		t.Errorf("domain names = %q, %q", doms[0].Name, doms[1].Name)
	}
	rd, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Counters[0] != 1_000_000 || rd.Counters[1] != 2_000_000 {
		t.Errorf("counters = %v, want [1000000 2000000]", rd.Counters)
	}
}

func TestRAPLDeltaAcrossRewrittenCounters(t *testing.T) {
	root := t.TempDir()
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 1_000_000, 10_000_000)
	r, err := NewRAPL(root)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the hardware counter advancing past the wrap point.
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 500_000, 10_000_000)
	r1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	j, err := deltaJ(r, r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	// (10_000_000 - 1_000_000) + 500_000 = 9_500_000 µJ = 9.5 J
	if math.Abs(j-9.5) > 1e-9 {
		t.Errorf("Delta = %v J, want 9.5", j)
	}
}

func TestRAPLNoDomains(t *testing.T) {
	if _, err := NewRAPL(t.TempDir()); err == nil {
		t.Error("want error for empty powercap root, got nil")
	}
	if _, err := NewRAPL(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("want error for missing powercap root, got nil")
	}
}

// TestRAPLMissingMaxRangeFallsBack checks discovery degrades gracefully when
// a domain has no max_energy_range_uj (some kernels/hypervisors omit it):
// the domain is kept with a zero wrap range read from sysfs rather than a
// hard-coded constant, and forward counter deltas still work.
func TestRAPLMissingMaxRangeFallsBack(t *testing.T) {
	root := t.TempDir()
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 1_000_000, 262_143_328_850)
	writeRAPLDomain(t, root, "intel-rapl:1", "package-1", 2_000_000, 0)
	if err := os.Remove(filepath.Join(root, "intel-rapl:1", "max_energy_range_uj")); err != nil {
		t.Fatal(err)
	}

	r, err := NewRAPL(root)
	if err != nil {
		t.Fatalf("NewRAPL must tolerate a missing max_energy_range_uj: %v", err)
	}
	doms := r.Domains()
	if len(doms) != 2 {
		t.Fatalf("got %d domains, want 2", len(doms))
	}
	if doms[0].MaxRangeMicroJ != 262_143_328_850 {
		t.Errorf("package-0 range = %d, want value read from sysfs", doms[0].MaxRangeMicroJ)
	}
	if doms[1].MaxRangeMicroJ != 0 {
		t.Errorf("package-1 range = %d, want 0 fallback for missing file", doms[1].MaxRangeMicroJ)
	}

	r0, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 1_500_000, 262_143_328_850)
	writeRAPLDomain(t, root, "intel-rapl:1", "package-1", 2_250_000, 0)
	os.Remove(filepath.Join(root, "intel-rapl:1", "max_energy_range_uj"))
	r1, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	j, err := deltaJ(r, r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j-0.75) > 1e-9 { // 0.5 J + 0.25 J
		t.Errorf("Delta = %v J, want 0.75", j)
	}

	// A wrap on the range-less domain must surface an explicit error
	// instead of a silently wrong delta.
	writeRAPLDomain(t, root, "intel-rapl:1", "package-1", 100, 0)
	os.Remove(filepath.Join(root, "intel-rapl:1", "max_energy_range_uj"))
	r2, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deltaJ(r, r1, r2); err == nil {
		t.Error("backwards counter with no wrap range must error")
	}
}

// TestRAPLMalformedMaxRangeFallsBack: garbage in max_energy_range_uj also
// degrades to the no-wrap fallback instead of failing discovery.
func TestRAPLMalformedMaxRangeFallsBack(t *testing.T) {
	root := t.TempDir()
	writeRAPLDomain(t, root, "intel-rapl:0", "package-0", 1_000_000, 1)
	if err := os.WriteFile(filepath.Join(root, "intel-rapl:0", "max_energy_range_uj"),
		[]byte("not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := NewRAPL(root)
	if err != nil {
		t.Fatalf("NewRAPL must tolerate malformed max_energy_range_uj: %v", err)
	}
	if got := r.Domains()[0].MaxRangeMicroJ; got != 0 {
		t.Errorf("range = %d, want 0 fallback", got)
	}
}

// TestRAPLSumsPackagesAndDRAM: the meter sums exactly each package plus its
// dram subzone. A client's core and uncore are inside its package and psys
// contains the package, so neither is added; a server's dram is outside
// its package, so each socket's is added, named after its package.
func TestRAPLSumsPackagesAndDRAM(t *testing.T) {
	type zone struct {
		dir, name      string
		before, after  uint64
		wantDomainName string // empty when the zone must not be summed
	}
	for _, tc := range []struct {
		machine string
		zones   []zone
		wantJ   float64
	}{
		{"client", []zone{
			{"intel-rapl:0", "package-0", 10_000_000, 11_000_000, "package-0"},
			{"intel-rapl:0:0", "core", 4_000_000, 4_600_000, ""},
			{"intel-rapl:0:1", "uncore", 1_000_000, 1_200_000, ""},
			{"intel-rapl:1", "psys", 30_000_000, 31_500_000, ""},
			{"intel-rapl-mmio:0", "package-0", 10_000_000, 11_000_000, ""},
		}, 1.0},
		{"two-socket server", []zone{
			{"intel-rapl:0", "package-0", 10_000_000, 12_000_000, "package-0"},
			{"intel-rapl:0:0", "dram", 5_000_000, 5_500_000, "dram-0"},
			{"intel-rapl:1", "package-1", 20_000_000, 23_000_000, "package-1"},
			{"intel-rapl:1:0", "dram", 7_000_000, 7_250_000, "dram-1"},
		}, 5.75},
	} {
		t.Run(tc.machine, func(t *testing.T) {
			root := t.TempDir()
			var wantNames []string
			for _, z := range tc.zones {
				writeRAPLDomain(t, root, z.dir, z.name, z.before, 262_143_328_850)
				if z.wantDomainName != "" {
					wantNames = append(wantNames, z.wantDomainName)
				}
			}
			r, err := NewRAPL(root)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, d := range r.Domains() {
				names = append(names, d.Name)
			}
			if !reflect.DeepEqual(names, wantNames) {
				t.Errorf("domains %q, want %q", names, wantNames)
			}
			r0, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			for _, z := range tc.zones {
				writeRAPLDomain(t, root, z.dir, z.name, z.after, 262_143_328_850)
			}
			r1, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if j, err := deltaJ(r, r0, r1); err != nil || math.Abs(j-tc.wantJ) > 1e-9 {
				t.Errorf("deltaJ = %v J, %v; want %v J", j, err, tc.wantJ)
			}
		})
	}
}
