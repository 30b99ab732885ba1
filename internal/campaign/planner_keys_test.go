package campaign

import (
	"strings"
	"testing"

	"energybench/internal/adapt"
	"energybench/internal/meter"
)

const adaptiveYAML = `
name: adaptive
meter: mock
mock_model: "int-alu:2,dram:8"
mock_noise_w: 0.3
algo: active
batch: 6
budget: 12
target_rse: 0.04
seed: 11
store: results.jsonl
spaces:
  - specs: [int-alu, chase-dram]
    threads: [1, 2, 3, 4]
`

func TestParseAdaptiveCampaign(t *testing.T) {
	c, err := Parse([]byte(adaptiveYAML))
	if err != nil {
		t.Fatal(err)
	}
	cfg, ok := c.AdaptConfig()
	if !ok {
		t.Fatal("AdaptConfig reports a non-adaptive campaign")
	}
	want := adapt.Config{Algo: "active", Batch: 6, Budget: 12, TargetRSE: 0.04, Seed: 11}
	if cfg != want {
		t.Errorf("AdaptConfig = %+v, want %+v", cfg, want)
	}
	planted, err := meter.ParseMockModel(c.MockModel)
	if err != nil {
		t.Fatal(err)
	}
	if planted["int-alu"] != 2 || planted["dram"] != 8 {
		t.Errorf("planted mock model = %v, want int-alu:2 dram:8", planted)
	}
	if c.MockNoiseW == nil || *c.MockNoiseW != 0.3 {
		t.Errorf("MockNoiseW = %v, want 0.3", c.MockNoiseW)
	}
}

func TestExhaustiveCampaignHasNoAdaptConfig(t *testing.T) {
	c, err := Parse([]byte(validYAML))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.AdaptConfig(); ok {
		t.Error("AdaptConfig claims an exhaustive campaign is adaptive")
	}
}

func TestAdaptiveCampaignValidation(t *testing.T) {
	base := `
meter: mock
spaces:
  - specs: [int-alu]
    threads: [1, 2]
`
	cases := []struct {
		name    string
		extra   string
		wantErr string
	}{
		{"unknown algo", "algo: anneal\n", "unknown algo"},
		{"batch without algo", "batch: 4\n", "batch requires algo"},
		{"budget without algo", "budget: 9\n", "budget requires algo"},
		{"target_rse without algo", "target_rse: 0.1\n", "target_rse requires algo"},
		{"seed without algo", "seed: 3\n", "seed requires algo"},
		{"target_rse with bo", "algo: bo\ntarget_rse: 0.1\n", "applies only to algo active"},
		{"zero batch", "algo: active\nbatch: 0\n", "batch must be at least 1"},
		{"zero budget", "algo: active\nbudget: 0\n", "budget must be at least 1"},
		{"zero seed", "algo: active\nseed: 0\n", "seed must be nonzero"},
		{"negative target", "algo: active\ntarget_rse: -0.5\n", "target_rse must be positive"},
		{"model off-mock", "meter: rapl\nmock_model: \"int-alu:2\"\n", "mock_model requires the mock meter"},
		{"bad model", "mock_model: \"int-alu\"\n", "component:watts"},
		{"noise without model", "mock_noise_w: 0.5\n", "requires mock_model"},
		{"negative noise", "mock_model: \"int-alu:2\"\nmock_noise_w: -1\n", "must be non-negative"},
	}
	for _, tc := range cases {
		doc := base + tc.extra
		if tc.name == "model off-mock" {
			doc = strings.Replace(base, "meter: mock\n", "", 1) + tc.extra
		}
		_, err := Parse([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
