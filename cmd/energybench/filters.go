package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"energybench/internal/harness"
	"energybench/internal/store"
)

// whereList collects repeated --where flags.
type whereList []string

func (w *whereList) String() string { return strings.Join(*w, ";") }

func (w *whereList) Set(v string) error {
	*w = append(*w, v)
	return nil
}

// filterFlags registers the shared result filter, `--where
// field=value,...`, and returns a builder that assembles the store.Filter
// after fs.Parse. Every store-consuming subcommand (store query, analyze,
// compare) goes through this one builder, so the filter surface cannot
// drift between them.
func filterFlags(fs *flag.FlagSet) func() (store.Filter, error) {
	var where whereList
	fs.Var(&where, "where", "comma-separated field=value filter pairs (spec|threads|placement|meter|host|workload|key); repeatable, same-field values OR together")
	return func() (store.Filter, error) {
		var f store.Filter
		for _, clause := range where {
			if err := applyWhere(&f, clause); err != nil {
				return f, fmt.Errorf("--where %q: %w", clause, err)
			}
		}
		for _, p := range f.Placements {
			if _, err := harness.ParsePlacement(p); err != nil {
				return f, err
			}
		}
		return f, nil
	}
}

// applyWhere merges one --where clause ("field=value,field=value,...") into
// the filter. Values for the same field accumulate (OR); distinct fields
// intersect (AND).
func applyWhere(f *store.Filter, clause string) error {
	for _, pair := range splitNonEmpty(clause) {
		field, value, ok := strings.Cut(pair, "=")
		// Trim both sides of the '=': values are compared verbatim against
		// stored fields, so an untrimmed "spec = chase-l1" would filter on
		// " chase-l1" and silently match nothing.
		value = strings.TrimSpace(value)
		if !ok || value == "" {
			return fmt.Errorf("pair %q is not of the form field=value", pair)
		}
		switch strings.TrimSpace(field) {
		case "spec":
			f.Specs = append(f.Specs, value)
		case "threads":
			n, err := strconv.Atoi(value)
			if err != nil || n <= 0 {
				return fmt.Errorf("threads value %q is not a positive integer", value)
			}
			f.Threads = append(f.Threads, n)
		case "placement":
			f.Placements = append(f.Placements, value)
		case "meter":
			f.Meters = append(f.Meters, value)
		case "host":
			f.Hosts = append(f.Hosts, value)
		case "workload":
			f.Workloads = append(f.Workloads, value)
		case "key":
			f.Keys = append(f.Keys, value)
		default:
			return fmt.Errorf("unknown field %q (want spec|threads|placement|meter|host|workload|key)", field)
		}
	}
	return nil
}

// queryFiltered streams the filtered results out of the store at db
// through the unified query API — no full-corpus load, and for sharded
// stores no deserialization of non-matching records.
func queryFiltered(db string, filter func() (store.Filter, error)) ([]harness.Result, error) {
	if db == "" {
		return nil, fmt.Errorf("--db is required")
	}
	f, err := filter()
	if err != nil {
		return nil, err
	}
	st, err := store.Open(db)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []harness.Result
	for rec, err := range st.Query(f) {
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Result)
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseIntList parses a comma-separated list of strictly positive integers,
// rejecting zero/negative values and silently dropping duplicates (order of
// first appearance is kept).
func parseIntList(s string) ([]int, error) {
	parts := splitNonEmpty(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	seen := make(map[int]bool, len(parts))
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		if v <= 0 {
			return nil, fmt.Errorf("value %d must be a positive integer", v)
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}
