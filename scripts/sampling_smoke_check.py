#!/usr/bin/env python3
"""Assertions for the time-resolved sampling smoke (make smoke-sampling / CI).

Usage: sampling_smoke_check.py STORE.jsonl PHASES.json BENCH_OUT.json

The smoke sweep runs the mock meter with a planted power schedule (42 W until
0.1 s after the meter epoch, 20 W after) and --sample-interval=10ms. This
script verifies the stored records carry the schema version the phase
analysis reports (the build's store.SchemaVersion, at least v3, the first
with series) and a non-empty series on every sample, that the phase
analysis found the planted regime change in the
first repetition (the only one whose window spans the schedule boundary — the
mock epoch is rep 0's before-read), and writes a small machine-readable
summary for the CI artifact.

Bounds are deliberately generous on point counts: on a loaded or single-CPU
runner the sampler goroutine competes with the spinning kernel and ticker
ticks coalesce.
"""
import json
import sys


def main(store_path, phases_path, bench_out):
    phases_doc = json.load(open(phases_path))
    schema = phases_doc["schema_version"]
    assert schema >= 3, f"schema_version {schema}, want >= 3 (series arrived in v3)"
    records = [json.loads(line) for line in open(store_path)]
    assert records, "store is empty"
    total_points = 0
    for rec in records:
        assert rec["v"] == schema, f"record schema v{rec['v']}, want v{schema} (the analysis's schema_version)"
        result = rec["result"]
        assert result.get("sample_interval_ns") == 10_000_000, result.get("sample_interval_ns")
        samples = result["samples"]
        assert samples, "no samples stored"
        for i, s in enumerate(samples):
            series = s.get("series")
            assert series, f"sample {i} has no series"
            assert series["interval_s"] == 0.01, series["interval_s"]
            points = series["points"]
            assert points, f"sample {i} series is empty"
            total_points += len(points)
            for pt in points:
                assert pt["t_s"] > 0, pt
                assert pt["domain_uj"], pt
                assert pt["power_w"] >= 0, pt

    reports = phases_doc["reports"]
    assert reports, "phase analysis produced no reports"
    rep0 = next(r for r in reports if r["rep"] == 0)
    phases = rep0["phases"]
    assert len(phases) >= 2, f"rep 0 segmented into {len(phases)} phases, want >= 2 (planted 42W->20W)"
    first, last = phases[0], phases[-1]
    assert abs(first["mean_w"] - 42) < 4, f"first phase mean {first['mean_w']} W, want ~42"
    assert abs(last["mean_w"] - 20) < 4, f"last phase mean {last['mean_w']} W, want ~20"
    assert first["end_s"] <= last["start_s"], (first, last)

    summary = {
        "records": len(records),
        "total_series_points": total_points,
        "rep0_points": rep0["points"],
        "rep0_phases": len(phases),
        "rep0_phase_means_w": [round(p["mean_w"], 2) for p in phases],
        "rep0_boundary_s": round(last["start_s"], 4),
    }
    with open(bench_out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print("sampling smoke OK:", json.dumps(summary))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2], sys.argv[3])
