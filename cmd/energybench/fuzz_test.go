package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"energybench/internal/store"
)

// FuzzDecodeAddInput: the `store add` decoder never panics, every result
// it accepts has a spec, and re-encoding an accepted result is a fixed
// point: decoding json.Marshal(r) and marshaling again gives the same
// bytes. Seeds are the inputs of the decoder's two table tests.
func FuzzDecodeAddInput(f *testing.F) {
	resultJSON := `{"spec":"int-alu","component":"alu","threads":2,"placement":"none","meter":"mock","iters":1000}`
	recordJSON := fmt.Sprintf(`{"v":%d,"key":"int-alu||t2+0|none|mock|i1000+0","saved_at":"2026-08-08T00:00:00Z","result":%s}`,
		store.SchemaVersion, resultJSON)
	for _, seed := range []string{
		"[" + resultJSON + "]",
		"  [" + recordJSON + "," + recordJSON + "]",
		recordJSON + "\n" + recordJSON + "\n\n" + recordJSON + "\n",
		fmt.Sprintf(`{"v":%d,"key":"k","result":{"spec":"int-alu"}}`+"\n", store.SchemaVersion+1),
		`{"neither":true}` + "\n",
		"not json\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := decodeAddInput(bytes.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		for i, r := range results {
			if r.Spec == "" {
				t.Fatalf("accepted result %d has no spec", i)
			}
			first, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("accepted result %d does not encode: %v", i, err)
			}
			again, err := decodeAddInput(strings.NewReader(string(first)), "re-encoded")
			if err != nil || len(again) != 1 {
				t.Fatalf("re-encoded result %d decodes to %d results, err %v:\n%s", i, len(again), err, first)
			}
			second, err := json.Marshal(again[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("re-encoding result %d is not a fixed point:\n%s\n%s", i, first, second)
			}
		}
	})
}
