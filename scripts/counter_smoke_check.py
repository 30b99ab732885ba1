#!/usr/bin/env python3
"""Assertions for the mock-counter leg of the campaign smoke (make smoke).

Usage: counter_smoke_check.py COUNTER_ANALYSIS.json

The leg sweeps int-alu and chase-dram at 1 and 2 threads with --counters on
the deterministic mock backend, then fits with --activity=counters. The fit
must use the counter source, rest on all 4 stored results, and produce a
non-empty coefficient set.
"""
import json
import sys


def main(analysis_path):
    doc = json.load(open(analysis_path))
    assert doc["activity"] == "counters", doc
    assert doc["observations"] == 4, doc
    coeffs = doc["fit"]["coeff_w_per_thread"]
    assert coeffs, "counter-based fit produced no coefficients"
    print("counter smoke OK:", coeffs)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip())
    main(*sys.argv[1:])
