#!/usr/bin/env python3
"""Smoke check of the benchmark itself: every workload at minimal length.

    python3 bench/smoke.py

For each workload, at the reference seed and one stride of units, this
checks that the untraced run prints exactly the end-to-end metrics of
BENCHMARK.json with no bad verdict, that the traced run prints exactly
the per-layer metrics, and that a corrupted reference digest makes
verdicts bad (the correctness gate fires).  Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, ROOT, load_reference, run, use_checkout
from workloads import WORKLOADS


def check(condition, message, problems):
    if not condition:
        problems.append(message)


def main():
    if not use_checkout():
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name, workload in sorted(WORKLOADS.items()):
        reference = load_reference(workload, DEFAULT_SEED)
        check(reference and len(reference) == workload.distinct_units,
              f"{name}: reference digests missing", problems)

        plain = run(workload, DEFAULT_SEED, 0, 0, reference)
        check(set(plain["metrics"]) == end_to_end,
              f"{name}: end-to-end metrics {sorted(plain['metrics'])}", problems)
        check(plain["failed"] == 0 and plain["extra"]["failed_share"]["value"] == 0,
              f"{name}: bad verdicts {plain['bad']}", problems)
        if name == "campaign":
            check("verdict_ms_p90" in plain["extra"], "campaign: no verdict_ms_p90", problems)

        traced = run(workload, DEFAULT_SEED, 0, 1, reference)
        check(set(traced["metrics"]) == layers,
              f"{name}: per-layer metrics differ by "
              f"{sorted(set(traced['metrics']) ^ layers)}", problems)
        check(traced["failed"] == 0, f"{name}: bad verdicts when traced", problems)

        corrupted = ["0" * 16] + reference[1:]
        gated = run(workload, DEFAULT_SEED, 0, 0, corrupted)
        check(gated["failed"] > 0 and gated["extra"]["failed_share"]["value"] > 0,
              f"{name}: a corrupted reference digest did not raise failed_share", problems)
        print(f"{name}: {'ok' if not problems else 'problems'}", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
