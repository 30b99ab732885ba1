package meter

import (
	"math"
	"testing"
	"time"
)

func TestMockPlantedModel(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	m := NewMockWithClock(40, 0, clock)
	m.ModelW = map[string]float64{"int-alu": 2, "dram": 8}

	read := func() float64 {
		r, err := m.Read()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return float64(r.Counters[0]) / 1e6
	}

	// 1s idle: intercept only.
	now = now.Add(time.Second)
	if got := read(); math.Abs(got-40) > 1e-6 {
		t.Fatalf("idle energy = %vJ, want 40", got)
	}
	// 2s at int-alu×3: draw 40 + 6 = 46 W.
	m.SetLoad(map[string]float64{"int-alu": 3})
	now = now.Add(2 * time.Second)
	if got, want := read(), 40+2*46.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("loaded energy = %vJ, want %v", got, want)
	}
	// 1s on a co-run vector: 40 + 2·2 + 8·2 = 60 W on top.
	m.SetLoad(map[string]float64{"int-alu": 2, "dram": 2})
	now = now.Add(time.Second)
	if got, want := read(), 40+2*46.0+60.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("co-run energy = %vJ, want %v", got, want)
	}
	// Back to idle integrates at the intercept again.
	m.SetLoad(nil)
	now = now.Add(time.Second)
	if got, want := read(), 40+2*46.0+60.0+40.0; math.Abs(got-want) > 1e-6 {
		t.Fatalf("post-load energy = %vJ, want %v", got, want)
	}
}

// TestMockPlantedNoiseDeterministic: the same load vector always gets the
// same perturbation, different vectors (almost surely) different ones, and
// the amplitude is bounded by NoiseW.
func TestMockPlantedNoiseDeterministic(t *testing.T) {
	m := &Mock{PowerWatts: 40, ModelW: map[string]float64{"int-alu": 2}, NoiseW: 0.5}
	a := m.modelWatts(map[string]float64{"int-alu": 2})
	b := m.modelWatts(map[string]float64{"int-alu": 2})
	if a != b {
		t.Fatalf("same load produced different draws: %v vs %v", a, b)
	}
	base := 2 * 2.0
	if math.Abs(a-base) > 0.5 {
		t.Errorf("noise |%v| exceeds amplitude 0.5", a-base)
	}
	c := m.modelWatts(map[string]float64{"int-alu": 3})
	if c == a {
		t.Errorf("distinct loads landed on identical draws %v", c)
	}
	// A mock without a planted model ignores SetLoad entirely.
	plain := &Mock{PowerWatts: 40}
	plain.SetLoad(map[string]float64{"int-alu": 5})
	if plain.loadW != 0 {
		t.Error("SetLoad changed an unmodeled mock")
	}
}

func TestParseMockModel(t *testing.T) {
	m, err := ParseMockModel(" int-alu:2, dram : 8.5 ")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m["int-alu"] != 2 || m["dram"] != 8.5 || len(m) != 2 {
		t.Errorf("parsed %v, want int-alu:2 dram:8.5", m)
	}
	if m, err := ParseMockModel(""); err != nil || m != nil {
		t.Errorf("empty spec parsed to %v, %v; want nil, nil", m, err)
	}
	for _, bad := range []string{"int-alu", "int-alu:x", ":2", "a:1,a:2",
		"int-alu:NaN", "int-alu:Inf", "int-alu:-Inf", "int-alu:-100", "int-alu:2,dram:-0.5"} {
		if _, err := ParseMockModel(bad); err == nil {
			t.Errorf("ParseMockModel(%q) accepted malformed input", bad)
		}
	}
	if m, err := ParseMockModel("int-alu:0"); err != nil || m["int-alu"] != 0 {
		t.Errorf("ParseMockModel(int-alu:0) = %v, %v; want a zero coefficient", m, err)
	}
}

func TestValidateMockRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name          string
		watts, noiseW float64
		model         string
		ok            bool
	}{
		{"plain", 42, 0, "", true},
		{"planted with noise", 42, 0.3, "int-alu:2", true},
		{"infinite watts", math.Inf(1), 0, "", false},
		{"NaN watts", math.NaN(), 0, "", false},
		{"infinite noise", 42, math.Inf(1), "int-alu:1", false},
		{"NaN noise", 42, math.NaN(), "int-alu:1", false},
		{"NaN coefficient", 42, 0, "int-alu:NaN", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateMock(tc.watts, tc.model, tc.noiseW); (err == nil) != tc.ok {
				t.Errorf("ValidateMock(%v, %q, %v) = %v, want ok=%v", tc.watts, tc.model, tc.noiseW, err, tc.ok)
			}
		})
	}
}

// FuzzMockParams feeds arbitrary mock parameters to the three mock parsers:
// none may panic, and whatever they accept must hold only finite values in
// range — positive watts, non-negative coefficients, noise, offsets and
// schedule watts, strictly increasing offsets.
func FuzzMockParams(f *testing.F) {
	f.Add("int-alu:2,fpu:5,l1:1.5,dram:8", "0.1:20", 42.0, 0.3)
	f.Add("int-alu:NaN", "NaN:20", math.Inf(1), math.NaN())
	f.Add(" a : 1e308 ,b:0", "0:0,1e-9:1e308", 1e-300, 0.0)
	f.Add("int-alu:-100", "0.01:Inf", -1.0, -1.0)
	f.Fuzz(func(t *testing.T, model, schedule string, watts, noiseW float64) {
		if m, err := ParseMockModel(model); err == nil {
			for c, w := range m {
				if c == "" || !nonNegativeFinite(w) {
					t.Fatalf("ParseMockModel(%q) accepted %q:%v", model, c, w)
				}
			}
		}
		if steps, err := ParseMockSchedule(schedule); err == nil {
			for i, st := range steps {
				if !nonNegativeFinite(st.AtS) || !nonNegativeFinite(st.Watts) || (i > 0 && st.AtS <= steps[i-1].AtS) {
					t.Fatalf("ParseMockSchedule(%q) accepted step %d = %+v", schedule, i, st)
				}
			}
		}
		if err := ValidateMock(watts, model, noiseW); err == nil {
			if !(watts > 0) || math.IsInf(watts, 0) || !nonNegativeFinite(noiseW) {
				t.Fatalf("ValidateMock accepted watts=%v noise=%v", watts, noiseW)
			}
			if _, err := ParseMockModel(model); err != nil {
				t.Fatalf("ValidateMock accepted model %q that does not parse: %v", model, err)
			}
		}
	})
}
