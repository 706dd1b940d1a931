#!/usr/bin/env python3
"""Summarize benchmark records, or compare two sets of them.

    python3 bench/compare.py DIR               # medians and quartiles per workload
    python3 bench/compare.py DIR --json        # the same as JSON (see bench/baseline.json)
    python3 bench/compare.py BASE_DIR NEW_DIR  # NEW against BASE, by the bounds in BENCHMARK.json

A record is the JSON file bench/run.py writes for each run.  Records
measured on different arithmetic backends (gmpy2 mpq against
fractions.Fraction, about 5x apart) are never compared: the comparison
stops with exit code 2.  Exit code 1 means a metric got worse by more
than its bound or a run had bad verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    groups = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        groups[record["workload"], record["trace"]].append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    out = {"runs": len(records), "seeds": sorted(r["seed"] for r in records),
           "backend": sorted({r["backend"] for r in records}),
           "python": sorted({r["python"] for r in records}),
           "machine": sorted({r.get("machine", "unrecorded") for r in records}),
           "failed": sum(r["failed"] for r in records),
           "attempted": sum(r["attempted"] for r in records), "metrics": {}}
    names = {name for r in records for section in ("metrics", "extra") for name in r[section]}
    for name in sorted(names):
        values = [r[s][name]["value"] for r in records for s in ("metrics", "extra")
                  if name in r[s]]
        unit = next(r[s][name]["unit"] for r in records for s in ("metrics", "extra")
                    if name in r[s])
        q1, median, q3 = quartiles(values)
        out["metrics"][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median if median else 0.0,
                                "unit": unit, "runs": len(values)}
    shares = defaultdict(list)
    for r in records:
        for name, share in r.get("shares", {}).items():
            shares[name].append(share)
    if shares:
        out["shares"] = {name: statistics.median(v) for name, v in
                         sorted(shares.items(), key=lambda kv: -statistics.median(kv[1]))}
    return out


def backends(*groups):
    return {r["backend"] for g in groups for records in g.values() for r in records}


def print_summary(groups):
    for (workload, trace), records in sorted(groups.items()):
        s = summarize(records)
        print(f"{workload} trace={trace}: {s['runs']} runs, backend {', '.join(s['backend'])}, "
              f"python {', '.join(s['python'])}, failed {s['failed']} of {s['attempted']}")
        for name, m in s["metrics"].items():
            print(f"  {name:42s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:6.1%}  {m['unit']}")
        for name, share in s.get("shares", {}).items():
            print(f"  share {name:40s} {share:7.2%}")


def compare(base, new):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        if trace:
            continue
        b, n = summarize(base[key]), summarize(new[key])
        if b["python"] != n["python"]:
            print(f"warning: {workload}: python {b['python']} against {n['python']}")
        if n["failed"]:
            print(f"{workload}: {n['failed']} bad verdicts in the new runs")
            worse += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bm, nm = b["metrics"][name], n["metrics"][name]
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (nm["median"] - bm["median"]) / bm["median"]
            if change > bound:
                verdict = "WORSE"
                worse += 1
            elif max(bm["spread"], nm["spread"]) > bound and name != "setup_s":
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:16s} {name:18s} {bm['median']:<12.6g} -> {nm['median']:<12.6g} "
                  f"worse by {change:+7.2%} (bound {bound:.0%}): {verdict}")
    return 1 if worse else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give one directory to summarize or two to compare")
    groups = [load(d) for d in args.dirs]
    found = backends(*groups)
    if len(found) > 1:
        print(f"refusing to compare records of different backends: {sorted(found)}",
              file=sys.stderr)
        return 2
    if len(groups) == 2:
        return compare(*groups)
    if args.json:
        print(json.dumps({f"{w} trace={t}": summarize(r) for (w, t), r in sorted(groups[0].items())},
                         indent=1))
    else:
        print_summary(groups[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
