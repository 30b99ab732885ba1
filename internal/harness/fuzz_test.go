package harness

import (
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
