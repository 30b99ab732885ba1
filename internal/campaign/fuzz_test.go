package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzCampaignParse asserts the contract every run relies on, since the run
// flags and campaign files share one validator: Parse never panics on any
// input, and a campaign Parse accepts always plans.
func FuzzCampaignParse(f *testing.F) {
	seeds, err := filepath.Glob("../../testdata/*.yaml")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed campaigns under testdata (err %v)", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		if _, err := c.Plan(); err != nil {
			t.Fatalf("Parse accepted a campaign Plan rejects: %v\n%s", err, data)
		}
	})
}
