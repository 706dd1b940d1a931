#!/usr/bin/env python3
"""The leonardz benchmark: one workload per process, every verdict checked.

    python3 bench/run.py --workload campaign --seed 7 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  The
run sets up the workload several times (import, field construction,
input generation, warm-up) and reports the median as setup_s, then runs
whole strides of units until --seconds have passed.  Every instance is
checked: a FAIL consistency flag, a raised error, a missed forced-mode
expectation or, at the reference seed, a rendered report whose digest
differs from bench/reference.json makes its verdict bad.

Every unit's and every set-up's wall time is also scaled to reference
seconds by the reference loop of bench/speed.py, run right before and
after it, so that the host's drifting CPU speed cancels out.  The
end-to-end metrics in BENCHMARK.json, verdicts_per_ref_s,
verdict_ref_ms_p50 and setup_s, are in reference seconds; the wall-clock
forms verdicts_per_s, verdict_ms_p50 and setup_wall_s are printed and
recorded beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every unit
twice, once untraced and once with spans around the package's layers,
and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, with the
arithmetic backend and the Python version, goes to
.bench-out/records/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import Speedometer
from tracing import Tracer
from workloads import WORKLOADS, Unit

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench-out"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
SETUP_REPEATS = 5

# Self time per verdict of these spans, and calls per verdict of some.
LAYER_SPANS = (
    "sampling.sample_spec",
    "parray.build_parameter_array",
    "parray.validate_spec",
    "analysis.verify_pi2",
    "analysis.analyze_instance",
    "realization.primitive_idempotents",
    "realization.standard_basis_rep",
    "realization.intersection_a_trace",
    "realization.verify_axioms",
    "zerodiag.z_basis_kernel",
    "zerodiag.x_space_basis",
    "zerodiag.has_zero_diagonal",
    "zerodiag.dependence_equivalences",
    "linalg.mat_mul",
    "linalg.solve_matrix",
    "linalg.rank",
    "linalg.nullspace",
    "linalg.det",
    "campaign.render_report",
    "cli.render_analysis",
)
COUNTED_SPANS = ("realization.primitive_idempotents", "linalg.mat_mul", "linalg.rank")
FIELD_OPS = ("add", "mul", "div")
OPERAND_PAIRS = 4000


def use_checkout():
    """Put the checkout's ./src first on the import path; False if it is missing."""
    if not (ROOT / "src" / "leonardz" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'leonardz'}; "
              "run from a leonardz checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def import_package():
    """Import leonardz afresh from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "leonardz" or m.startswith("leonardz.")]:
        del sys.modules[name]
    lz = importlib.import_module("leonardz")
    importlib.import_module("leonardz.cli")
    return lz


def backend_name(lz):
    value = lz.Rationals().one
    return f"{type(value).__module__}.{type(value).__qualname__}"


def set_up(workload, seed, repeats):
    """Set up `repeats` times.

    Returns the package, the inputs, and each set-up's wall seconds and
    reference seconds.
    """
    speed = Speedometer()
    times, ref_times = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        lz = import_package()
        state = workload.setup(lz, seed)
        times.append(time.perf_counter() - start)
        ref_times.append(times[-1] * speed.scale())
    return lz, state, times, ref_times


class Tally:
    """Verdicts, wall time and reference time of the units run in one measured window."""

    def __init__(self):
        self.times_ms = []
        self.ref_times_ms = []
        self.attempted = 0
        self.failed = 0
        self.bad = []
        self.specs = []
        self.units = 0
        self.wall = 0.0
        self.ref_wall = 0.0

    @property
    def verdicts(self):
        return self.attempted - self.failed

    def add(self, k, unit, wall, scale, expected_digest):
        """Count a unit; `scale` is its reference seconds per wall second."""
        self.units += 1
        self.wall += wall
        self.ref_wall += wall * scale
        self.times_ms.extend(unit.times_ms)
        self.ref_times_ms.extend(t * scale for t in unit.times_ms)
        self.attempted += unit.attempted
        self.specs.extend(unit.specs)
        self.bad.extend(unit.bad)
        if expected_digest is not None and unit.digest and unit.digest != expected_digest:
            self.bad.append(f"unit {k}: report digest {unit.digest} "
                            f"!= reference {expected_digest}")
            self.failed += unit.attempted
        else:
            self.failed += len(unit.bad)


def run_unit(lz, workload, state, k, speed):
    """One unit, its wall time and its scale to reference seconds.

    A unit that raises gets a bad verdict.
    """
    start = time.perf_counter()
    try:
        unit = workload.run_unit(lz, state, k)
    except Exception as e:
        unit = Unit([], 1, [f"unit {k}: {type(e).__name__}: {e}"])
    wall = time.perf_counter() - start
    return unit, wall, speed.scale()


def run_window(lz, workload, state, reference, seconds, tracer=None):
    """Run whole strides of units until `seconds` have passed.

    With a tracer, every unit runs twice, untraced and traced, in an order
    that alternates from unit to unit, so both tallies see the same machine.
    Returns the untraced tally, the traced one (None without a tracer) and
    the times of the reference loops run between units.
    """
    untraced = Tally()
    traced = Tally() if tracer else None
    speed = Speedometer()
    start = time.perf_counter()
    k = 0
    while k == 0 or k % workload.stride or time.perf_counter() - start < seconds:
        expected = reference[k % len(reference)] if reference else None
        order = (False, True) if k % 2 == 0 else (True, False)
        for tracing in order if tracer else (False,):
            if tracing:
                tracer.install(lz)
                try:
                    traced.add(k, *run_unit(lz, workload, state, k, speed), expected)
                finally:
                    tracer.uninstall()
            else:
                untraced.add(k, *run_unit(lz, workload, state, k, speed), expected)
        k += 1
    return untraced, traced, speed.loops


def field_op_ns(lz, specs):
    """Nanoseconds per field_arith call on pairs of nonzero entries of the specs' M matrices.

    Both operands of a pair come from one matrix, so they share a field.
    """
    pairs = []
    for spec in specs:
        arr = lz.build_parameter_array(spec)
        m = lz.matrix_m(lz.intersection_a_closed(arr), arr.theta_star, arr.field)
        entries = [x for row in m for x in row if x]
        pairs.extend(zip(entries, entries[1:]))
        if len(pairs) >= OPERAND_PAIRS:
            break
    pairs = pairs[:OPERAND_PAIRS]
    out = {}
    for op in FIELD_OPS:
        samples = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for a, b in pairs:
                lz.field_arith(a, b, op)
            samples.append((time.perf_counter_ns() - start) / len(pairs))
        out[op] = statistics.median(samples)
    return out


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(tally, setup_times, setup_ref_times, loops):
    times = tally.times_ms
    metrics = {
        "verdicts_per_ref_s": (tally.verdicts / tally.ref_wall, "1/ref_s", tally.verdicts),
        "verdict_ref_ms_p50": (median_or_zero(tally.ref_times_ms), "ref_ms", len(times)),
        "setup_s": (statistics.median(setup_ref_times), "s", len(setup_ref_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }
    extra = {
        "verdicts_per_s": (tally.verdicts / tally.wall, "1/s", tally.verdicts),
        "verdict_ms_p50": (median_or_zero(times), "ms", len(times)),
        "setup_wall_s": (statistics.median(setup_times), "s", len(setup_times)),
        "reference_loop_ms": (statistics.median(loops) * 1000, "ms", len(loops)),
        "failed_share": (tally.failed / tally.attempted, "ratio", tally.attempted),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if len(times) >= 100:
        extra["verdict_ms_p90"] = (statistics.quantiles(times, n=10)[8], "ms", len(times))
    return metrics, extra


def per_layer(lz, tracer, traced, untraced):
    spans = tracer.self_times()
    verdicts = max(traced.verdicts, 1)
    metrics = {}
    for name in LAYER_SPANS:
        self_s, calls = spans.get(name, (0.0, 0))
        metrics[f"{name}.s"] = (self_s / verdicts, "s/verdict", calls)
        if name in COUNTED_SPANS:
            metrics[f"{name}.calls"] = (calls / verdicts, "calls/verdict", calls)
    accepted, validated = tracer.count_children("sampling.sample_spec", "parray.validate_spec")
    metrics["sampling.accept_ratio"] = (accepted / validated if validated else 0.0, "ratio", validated)
    for op, ns in field_op_ns(lz, traced.specs).items():
        metrics[f"exactfield.{op}_ns"] = (ns, "ns", OPERAND_PAIRS)
    metrics["trace.untraced_s"] = (untraced.wall, "s", untraced.units)
    metrics["trace.traced_s"] = (traced.wall, "s", traced.units)
    metrics["trace.overhead"] = (traced.wall / untraced.wall, "ratio", traced.units)
    shares = {name: self_s / traced.wall for name, (self_s, _) in spans.items()}
    shares["(outside spans)"] = 1 - sum(shares.values())
    return metrics, shares


def load_reference(workload, seed):
    data = json.loads(REFERENCE_FILE.read_text())
    if seed != data["seed"]:
        return None
    return data["workloads"][workload.name]


def run(workload, seed, seconds, trace, reference):
    """Run one benchmark and return its record (a JSON-ready dict)."""
    repeats = 1 if trace else SETUP_REPEATS
    lz, state, setup_times, setup_ref_times = set_up(workload, seed, repeats)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "backend": backend_name(lz), "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "reference_checked": reference is not None,
        "setup_wall_s_samples": setup_times,
        "setup_ref_s_samples": setup_ref_times,
    }
    if not trace:
        tally, _, loops = run_window(lz, workload, state, reference, seconds)
        metrics, extra = end_to_end(tally, setup_times, setup_ref_times, loops)
        tallies = [tally]
    else:
        tracer = Tracer(workload.instance_span)
        untraced, traced, _ = run_window(lz, workload, state, reference, seconds, tracer)
        metrics, record["shares"] = per_layer(lz, tracer, traced, untraced)
        extra = {}
        tallies = [untraced, traced]
        spans_file = OUT_DIR / f"spans-{workload.name}.csv.gz"
        tracer.write(spans_file)
        record["spans_file"] = str(spans_file.relative_to(ROOT))
        record["spans"] = len(tracer.start)
    record["attempted"] = sum(t.attempted for t in tallies)
    record["failed"] = sum(t.failed for t in tallies)
    record["bad"] = [b for t in tallies for b in t.bad][:50]
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    record["extra"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()}
    return record


def print_record(record, out=sys.stdout):
    print(f"leonardz benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}", file=out)
    print(f"backend: {record['backend']}  python: {record['python']}  "
          f"reference digests checked: {record['reference_checked']}", file=out)
    for section in ("metrics", "extra"):
        for name, m in record[section].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})", file=out)
    print(f"  failed = {record['failed']} of {record['attempted']} attempted", file=out)
    for line in record["bad"]:
        print(f"  bad verdict: {line}", file=out)
    if "shares" in record:
        print("  self-time share of traced wall:", file=out)
        for name, share in sorted(record["shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:40s} {share:7.2%}", file=out)


def result_line(record):
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_checkout():
        return 2
    workload = WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, args.trace,
                 load_reference(workload, args.seed))
    path = OUT_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
