#!/usr/bin/env python3
"""Check that a fleet metrics snapshot carries the link-health export.

Usage: check_fleet_metrics.py fleet_metrics.json

fleet_scaling --metrics writes every client's LinkHealthStats into one
registry at the end of the run (rt::export_link_health). This fails when
any of those 22 keys, or one of the fleet summary gauges, is missing, so a
lost export cannot pass as a valid but empty JSON file.
"""
import json
import sys

COUNTERS = [
    "requests_sent", "retransmissions", "attempt_timeouts",
    "requests_failed", "responses_received", "stale_responses",
    "spurious_retransmissions", "chunks_received", "duplicate_chunks",
    "partial_applies", "resend_requests", "admission_rejects", "busy_pings",
    "probes_sent", "degraded_entries", "degraded_frames", "refresh_requests",
    "canvas_deltas", "canvas_resyncs",
]
GAUGES = ["srtt_ms", "rto_ms", "slo_violations", "stale_rate",
          "metrics_memory_bytes"]
HISTOGRAMS = ["mask_staleness_ms"]


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        snapshot = json.load(f)
    missing = [f"{section}.{key}"
               for section, keys in (("counters", COUNTERS),
                                     ("gauges", GAUGES),
                                     ("histograms", HISTOGRAMS))
               for key in keys if key not in snapshot.get(section, {})]
    if missing:
        print("fleet metrics check FAILED: missing " + ", ".join(missing))
        return 1
    present = len(COUNTERS) + len(GAUGES) + len(HISTOGRAMS)
    print(f"fleet metrics check passed: {present} keys present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
