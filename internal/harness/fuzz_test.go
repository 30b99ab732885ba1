package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseKey: ParseKey never panics, whatever it is handed, and it
// inverts ResultKey for every result a key can carry — no field containing
// '|', and a microarch only beside a host.
func FuzzParseKey(f *testing.F) {
	for _, r := range append(append([]Result(nil), parseKeyCases...), parseKeyDimensionCases...) {
		f.Add(r.Spec, r.SpecB, r.Threads, r.ThreadsB, string(r.Placement), r.Meter,
			r.Iters, r.ItersB, r.Workload, r.Host, r.Microarch)
	}
	f.Fuzz(func(t *testing.T, spec, specB string, threads, threadsB int, placement, meterName string,
		iters, itersB int, workload, host, microarch string) {
		ParseKey(spec) // arbitrary input: must not panic
		r := Result{Spec: spec, SpecB: specB, Threads: threads, ThreadsB: threadsB,
			Placement: Placement(placement), Meter: meterName, Iters: iters, ItersB: itersB,
			Workload: workload, Host: host, Microarch: microarch}
		key := ResultKey(r)
		got, ok := ParseKey(key)
		fields := []string{spec, specB, placement, meterName, workload, host, microarch}
		if strings.Contains(strings.Join(fields, ""), "|") || (microarch != "" && host == "") {
			return // not a key ResultKey can build unambiguously
		}
		want := KeyFields{Spec: spec, SpecB: specB, Threads: threads, ThreadsB: threadsB,
			Placement: r.Placement, Meter: meterName, Iters: iters, ItersB: itersB,
			Workload: workload, Host: host, Microarch: microarch}
		if !ok || got != want {
			t.Fatalf("ParseKey(%q) = %+v, %v; want %+v", key, got, ok, want)
		}
	})
}

// FuzzWorkerEnvelope: decodeWorkerEnvelope never panics, whatever a worker
// writes, and every envelope it accepts is of a protocol this build reads,
// carries exactly one of a result and an error, and decodes to the same
// envelope again once encoded.
func FuzzWorkerEnvelope(f *testing.F) {
	for _, s := range []string{
		`{"v":1,"result":{"spec":"int-alu","threads":2,"placement":"compact","meter":"mock",` +
			`"samples":[{"energy_j":0.42,"time_s":0.01,"power_w":42}],"energy_j_summary":{"n":1,"mean":0.42}}}`,
		`{"v":1,"error":"meter exploded"}`,
		`{"v":1,"result":{"spec":"x"},"error":"both"}`,
		`{"v":1}`,
		`{"v":99,"result":{"spec":"x"}}`,
		`{"v":1,"result":null,"error":""}`,
		`{"v":1,"error":"x"} trailing`,
		`this is not json`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, out []byte) {
		env, err := decodeWorkerEnvelope(out)
		if err != nil {
			return
		}
		if env.V > WorkerProtocolVersion || (env.Result == nil) == (env.Error == "") {
			t.Fatalf("accepted %q as %+v", out, env)
		}
		first, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("encoding the accepted envelope: %v", err)
		}
		again, err := decodeWorkerEnvelope(first)
		if err != nil {
			t.Fatalf("the encoded envelope %s no longer decodes: %v", first, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("envelope changed across a round trip:\n%s\n%s", first, second)
		}
	})
}
