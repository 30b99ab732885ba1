package store

import (
	"time"

	"energybench/internal/harness"
)

// SchemaVersion is the record schema this package writes. Readers accept
// records with a version at or below their own and reject newer ones.
//
// History:
//
//	v1 — initial record shape (key, saved_at, result).
//	v2 — result may carry a measured activity vector (result.counters:
//	     scaled hardware event counts per thread). v1 records load
//	     unchanged; their results simply have no counters.
//	v3 — result may carry a sampling interval (result.sample_interval_ns)
//	     and per-repetition time-resolved series (result.samples[i].series:
//	     per-domain µJ deltas, power, and event counts per tick), plus the
//	     meter-window duration per sample (result.samples[i].meter_time_s).
//	     v1/v2 records load unchanged; their samples simply have no series.
//	v4 — result may carry the executing machine's identity (result.host,
//	     result.microarch), stamped by the fleet coordinator when merging
//	     remote agents' results; the configuration key then grows trailing
//	     "|h:host" and "|u:microarch" dimensions so the same configuration
//	     measured on two machines stays two live records. v1–v3 records
//	     (and any result without a host) load unchanged with their exact
//	     six-field keys.
//	v5 — result may be an external-workload measurement (result.workload,
//	     result.workload_components: the declared per-thread activity mix);
//	     the configuration key then carries a "|w:workload" dimension
//	     between the six base fields and any fleet dimensions. v1–v4
//	     records (and any workload-less result) load unchanged with their
//	     exact keys.
const SchemaVersion = 5

// maxLine bounds one JSONL record; results with many samples stay far under.
const maxLine = 16 << 20

// Record is one stored measurement: a harness result plus the metadata
// needed to merge stores written at different times by different builds.
type Record struct {
	V       int            `json:"v"`
	Key     string         `json:"key"`
	SavedAt time.Time      `json:"saved_at"`
	Result  harness.Result `json:"result"`
}

// Filter selects stored results. Zero-value fields match everything; a
// non-empty Specs matches a result whose primary or co-run spec is listed.
// Keys and Meters select on the record's configuration key and energy
// backend; in sharded stores every field is evaluated against the per-key
// index first, so non-matching records are never read off disk.
type Filter struct {
	Specs      []string
	Threads    []int
	Placements []string
	Meters     []string
	Keys       []string
	// Hosts selects on the executing machine stamped by a fleet merge; a
	// single-host result (no host) matches only an empty Hosts filter.
	Hosts []string
	// Workloads selects on the external-workload dimension; a kernel
	// result (no workload) matches only an empty Workloads filter.
	Workloads []string
}

// IsZero reports whether the filter matches everything.
func (f Filter) IsZero() bool {
	return len(f.Specs) == 0 && len(f.Threads) == 0 && len(f.Placements) == 0 &&
		len(f.Meters) == 0 && len(f.Keys) == 0 && len(f.Hosts) == 0 &&
		len(f.Workloads) == 0
}

// Match reports whether the result passes the filter.
func (f Filter) Match(r harness.Result) bool {
	if len(f.Keys) > 0 && !containsString(f.Keys, harness.ResultKey(r)) {
		return false
	}
	return f.matchFields(r.Spec, r.SpecB, r.Threads, string(r.Placement), r.Meter, r.Host, r.Workload)
}

// MatchKey reports whether a record stored under the given configuration
// key can pass the filter, judged from the key alone. It is conservative:
// false only when the key proves a mismatch, true whenever the key cannot
// decide (unparseable keys from foreign builds), so it is safe to use as an
// index-level pre-filter before reading record bytes — Match is still the
// authority on the decoded result.
func (f Filter) MatchKey(key string) bool {
	if len(f.Keys) > 0 && !containsString(f.Keys, key) {
		return false
	}
	kf, ok := harness.ParseKey(key)
	if !ok {
		return true
	}
	return f.matchFields(kf.Spec, kf.SpecB, kf.Threads, string(kf.Placement), kf.Meter, kf.Host, kf.Workload)
}

// matchFields is the single filter predicate shared by Match and MatchKey,
// so the index pre-filter can never disagree with the record-level filter.
func (f Filter) matchFields(spec, specB string, threads int, placement, meter, host, workload string) bool {
	if len(f.Specs) > 0 {
		ok := false
		for _, s := range f.Specs {
			if spec == s || (specB != "" && specB == s) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Threads) > 0 {
		ok := false
		for _, t := range f.Threads {
			if threads == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Placements) > 0 && !containsString(f.Placements, placement) {
		return false
	}
	if len(f.Meters) > 0 && !containsString(f.Meters, meter) {
		return false
	}
	if len(f.Hosts) > 0 && !containsString(f.Hosts, host) {
		return false
	}
	if len(f.Workloads) > 0 && !containsString(f.Workloads, workload) {
		return false
	}
	return true
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
