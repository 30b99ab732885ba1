#!/usr/bin/env python3
"""Assertions for the external-workload smoke (make smoke-extern / CI).

Usage: extern_smoke_check.py ANALYSIS.json ROWS.json BENCH_OUT.json

The smoke (testdata/extern-smoke.yaml) fits the power model on kernel sweeps
against a planted mock model, runs the bundled externstress binary as an
external workload under the same meter, and analyzes the store with
--validate --roofline. ROWS.json is `store query --where workload=stress`
over that store: both stress configurations must be stored under the |w:
key dimension. This script asserts that, the acceptance criterion — the
model predicts every workload configuration's power within 5% aggregate
MAPE — and the structural invariants (every workload row predicted, the
roofline placed every point), and writes the comparison as the BENCH_extern
artifact CI publishes.
"""
import json
import sys

MAPE_LIMIT_PCT = 5.0


def main(analysis_path, rows_path, bench_out):
    recs = json.load(open(rows_path))
    assert len(recs) == 2, len(recs)
    assert all(r["result"]["workload"] == "stress" for r in recs), recs[:1]
    assert all("|w:stress" in r["key"] for r in recs), [r["key"] for r in recs]
    print("workload rows OK:", sorted(r["key"] for r in recs))

    analysis = json.load(open(analysis_path))

    v = analysis.get("validation")
    assert v, f"analysis carries no validation section: {sorted(analysis)}"
    rows = v["workloads"]
    assert rows, "validation has no workload rows"
    failed = [w for w in rows if w.get("error")]
    assert not failed, f"workload rows failed to predict: {failed}"
    assert v["predicted"] == len(rows), (v["predicted"], len(rows))
    assert v["mape_pct"] < MAPE_LIMIT_PCT, (
        f"power MAPE {v['mape_pct']:.3f}% is not below {MAPE_LIMIT_PCT}%"
    )
    assert v["energy_mape_pct"] < MAPE_LIMIT_PCT, (
        f"energy MAPE {v['energy_mape_pct']:.3f}% is not below {MAPE_LIMIT_PCT}%"
    )
    for w in rows:
        assert w["measured_w"] > 0 and w["predicted_w"] > 0, w

    rf = analysis.get("roofline")
    assert rf, f"analysis carries no roofline section: {sorted(analysis)}"
    points = rf["points"]
    assert len(points) == len(rows), (len(points), len(rows))
    unplaced = [p for p in points if p.get("error")]
    assert not unplaced, f"roofline points failed to place: {unplaced}"
    assert rf.get("peak_instr_per_sec", 0) > 0, rf
    assert rf.get("ceilings_bytes_per_sec", {}).get("dram", 0) > 0, rf
    for p in points:
        assert p.get("bound") in ("compute", "memory"), p

    summary = {
        "workloads": len(rows),
        "power_mape_pct": round(v["mape_pct"], 4),
        "energy_mape_pct": round(v["energy_mape_pct"], 4),
        "mape_limit_pct": MAPE_LIMIT_PCT,
        "per_workload": [
            {
                "label": w["label"],
                "measured_w": round(w["measured_w"], 3),
                "predicted_w": round(w["predicted_w"], 3),
                "power_err_pct": round(w["power_err_pct"], 4),
                "energy_err_pct": round(w.get("energy_err_pct", 0), 4),
                "bound": p.get("bound"),
                "intensity_instr_per_byte": round(
                    p.get("intensity_instr_per_byte", 0), 2
                ),
            }
            for w, p in zip(rows, points)
        ],
        "roofline": {
            "ceilings_bytes_per_sec": rf["ceilings_bytes_per_sec"],
            "peak_instr_per_sec": rf["peak_instr_per_sec"],
            "ridge_instr_per_byte": rf.get("ridge_instr_per_byte"),
        },
    }
    with open(bench_out, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
    print(
        f"extern smoke OK: {len(rows)} workload configurations predicted, "
        f"power MAPE {summary['power_mape_pct']}% / energy MAPE "
        f"{summary['energy_mape_pct']}% (< {MAPE_LIMIT_PCT}%; wrote {bench_out})"
    )


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip())
    main(*sys.argv[1:])
