#!/usr/bin/env python3
"""Diff a benchmark's HEADLINE lines against checked-in expectations.

Benchmarks print one machine-readable line per (scenario, system) row:

    HEADLINE scenario=clean system=edgeIS iou=0.6353 timeouts=0 ...

The simulation is deterministic for a fixed seed, but headline numbers
still drift when intentional changes land (model tweaks, link profiles,
scenario edits). The nightly job is a tripwire, not a lockfile: numeric
fields match within a tolerance, and the failure message shows exactly
which field of which row moved so the expectation file can be
regenerated deliberately (run the bench, replace the file).

Row sets must match exactly in both directions — a missing or extra
(scenario, system) row fails, as does a field present on one side of a
row but not the other. `--subset` relaxes only the row-set direction:
the actual rows may be a strict subset of the expectations (the PR smoke
run validates its 2x2 corner of the scenario matrix against the full
committed grid), but every row that does appear is still checked
field-for-field both ways.

Usage:
    bench/fig17b_fault_sweep | scripts/check_headline.py bench/expected/fig17b_headline.txt
    scripts/check_headline.py expected.txt actual.txt
    bench/scenario_matrix --smoke | scripts/check_headline.py --subset bench/expected/scenario_matrix_headline.txt
"""

import os
import sys

# Per-field tolerances. Counters compare within max(abs, rel * expected)
# so small counts must match near-exactly while large ones may drift a
# little; unlisted fields must match exactly (they are labels).
TOLERANCES = {
    "iou": (0.02, 0.10),
    "timeouts": (1, 0.25),
    "rtx": (1, 0.25),
    "spurious": (0, 0.0),
    "failed": (1, 0.0),
    "degraded_ms": (150, 0.25),
    "stale_p95": (150, 0.25),
    "tx_bytes": (4096, 0.15),
    # Streamed-response accounting (full-duplex transmission).
    "chunks": (4, 0.15),
    "partial_applies": (4, 0.25),
    "resend_req": (1, 0.25),
    "dup_chunks": (1, 0.25),
    # Fleet scaling (bench/fleet_scaling): pooled tail latency, shared-GPU
    # admission/batching accounting.
    "p50_ms": (15, 0.20),
    "p99_ms": (50, 0.25),
    "stale_rate": (0.05, 0.50),
    "rejects": (8, 0.40),
    "batches": (10, 0.30),
    "mean_batch": (0.5, 0.30),
    "degraded": (2, 0.50),
    # Critical-path waterfall columns (runtime/critpath.hpp): mean ms per
    # answered request per stage. The link stages are per-client and
    # tight; the contended stages (gpu_wait, compute-in-batch, stream
    # tail) move with scheduling order, so they get the loose band.
    "up_ms": (2, 0.25),
    "gpu_wait_ms": (25, 0.35),
    "gpu_ms": (40, 0.25),
    "stream_ms": (15, 0.35),
    "down_ms": (2, 0.25),
    "pickup_ms": (10, 0.40),
    "rtt_ms": (60, 0.25),
    "cp_requests": (8, 0.30),
    # Pooled staleness-SLO violations and the sketch-backed metrics
    # registry footprint (scales with client count, not samples).
    "slo_viol": (4, 0.50),
    "metrics_kb": (8, 0.30),
    # Canvas-delta uplink (bench/fig10_network delta rows, fig17b
    # edgeIS-delta rows, fleet_scaling up_kb): bytes on the wire and the
    # canvas economy. `reduction` is the fig10 acceptance number —
    # delta's byte cut vs full-CFRS — and is held to a tight band so a
    # regression below the 30% floor trips the nightly job.
    "up_kb": (16, 0.15),
    "msgs": (2, 0.15),
    "deltas": (3, 0.25),
    "fulls": (2, 0.40),
    "tiles_sent": (250, 0.25),
    "tiles_reused": (400, 0.25),
    "hit_rate": (0.08, 0.20),
    "resyncs": (2, 0.60),
    "reduction": (0.06, 0.12),
    # Scenario matrix (bench/scenario_matrix): accuracy bucketed by
    # annotation freshness. The stale bucket is small on some cells (a
    # handful of recovery frames), so its mean gets the loose band;
    # frames_stale is a frame count out of ~165 scored.
    "iou_clean": (0.02, 0.10),
    "iou_stale": (0.04, 0.25),
    "frames_stale": (4, 0.20),
}


def parse(stream):
    rows = {}
    for line in stream:
        parts = line.split()
        if not parts or parts[0] != "HEADLINE":
            continue
        fields = dict(p.split("=", 1) for p in parts[1:] if "=" in p)
        key = (fields.pop("scenario", "?"), fields.pop("system", "?"))
        if key in rows:
            raise SystemExit(f"duplicate headline row {key}")
        rows[key] = fields
    return rows


def close_enough(field, expected, actual):
    tol = TOLERANCES.get(field)
    if tol is None:
        return expected == actual
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return expected == actual
    abs_tol, rel_tol = tol
    return abs(a - e) <= max(abs_tol, rel_tol * abs(e))


def main(argv):
    args = list(argv[1:])
    subset = "--subset" in args
    if subset:
        args.remove("--subset")
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    # A missing file is a setup fault (an uncommitted baseline or a typo'd
    # path); say which one in a line, not a traceback.
    for role, path in zip(("expected", "output"), args):
        if not os.path.isfile(path):
            print(f"HEADLINE check FAILED: {role} file not found: {path}")
            return 1
    with open(args[0]) as f:
        expected = parse(f)
    if len(args) == 2:
        with open(args[1]) as f:
            actual = parse(f)
    else:
        actual = parse(sys.stdin)

    # An empty side is never a pass: an empty expectation file means the
    # baseline was not committed, an empty actual means the bench crashed
    # before its first HEADLINE (both used to slip through as "0 rows OK").
    if not expected:
        print(f"HEADLINE check FAILED: no HEADLINE rows in {args[0]}")
        return 1
    if not actual:
        print("HEADLINE check FAILED: no HEADLINE rows in benchmark output")
        return 1

    failures = []
    for key, efields in expected.items():
        arow = actual.get(key)
        if arow is None:
            if not subset:
                failures.append(f"{key[0]}/{key[1]}: row missing from output")
            continue
        for field, evalue in efields.items():
            avalue = arow.get(field)
            if avalue is None:
                failures.append(f"{key[0]}/{key[1]}: field {field} missing")
            elif not close_enough(field, evalue, avalue):
                failures.append(
                    f"{key[0]}/{key[1]}: {field} expected {evalue}, got {avalue}"
                )
        for field in arow:
            if field not in efields:
                failures.append(
                    f"{key[0]}/{key[1]}: new field {field} not in "
                    "expectations (regenerate the expectation file)"
                )
    for key in actual:
        if key not in expected:
            failures.append(
                f"{key[0]}/{key[1]}: new row not in expectations "
                "(regenerate the expectation file)"
            )

    if failures:
        print(f"HEADLINE check FAILED ({len(failures)} mismatches):")
        for f in failures:
            print(f"  {f}")
        return 1
    checked = sum(1 for key in expected if key in actual)
    label = f"{checked}/{len(expected)} rows" if subset else f"{checked} rows"
    print(f"HEADLINE check OK ({label} within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
