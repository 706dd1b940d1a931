#!/usr/bin/env python3
"""Print what deep analysis costs against fast analysis, per field and d.

For each field (Q, GF(1000003), GF(3^4)) and each diameter d, the script
draws seeded samples of every family the field admits at d, builds each
parameter array once and times analyze_instance on it in fast and in deep
mode, the best of REPEAT calls each; the samples are drawn from SEED.  It
prints the median fast and deep milliseconds over those specs and their
ratio, one line per field and d.
A family whose sampler gives up at that field and d is left out, and the
specs column says how many were timed.

Usage: python scripts/deep_cost.py [-h] [--d D [D ...]] [--samples N]

The package is imported from src/ next to this script when it is not
installed.  Times are wall-clock and move with the host's load: compare
runs of the same host only.
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leonardz.analysis import analyze_instance  # noqa: E402
from leonardz.errors import LeonardError  # noqa: E402
from leonardz.exactfield import parse_field  # noqa: E402
from leonardz.families import FAMILIES  # noqa: E402
from leonardz.parray import ALL_TYPES, build_parameter_array  # noqa: E402
from leonardz.sampling import sample_spec  # noqa: E402

FIELDS = ("Q", "GF(1000003)", "GF(3^4)")
SEED = "7"
REPEAT = 3  # calls per spec and mode; the best counts


def families_over(ctx, d):
    """The types that admit diameter d over the field ctx."""
    return [name for name in ALL_TYPES
            if FAMILIES[name].diameter in (None, d)
            and (FAMILIES[name].characteristic is None
                 or FAMILIES[name].characteristic.allows(ctx.characteristic, d))]


def best_ms(fn):
    best = None
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        elapsed = (time.perf_counter() - start) * 1000
        best = elapsed if best is None else min(best, elapsed)
    return best


def cost(label, d, samples):
    """(specs timed, median fast ms, median deep ms) at field label and d."""
    ctx = parse_field(label)
    fast, deep = [], []
    for name in families_over(ctx, d):
        for k in range(samples):
            rng = random.Random(f"{SEED}|deep-cost|{label}|{d}|{name.value}|{k}")
            try:
                spec = sample_spec(name, d, ctx, rng)
            except LeonardError:
                continue
            arr = build_parameter_array(spec)
            fast.append(best_ms(lambda: analyze_instance(spec, arr)))
            deep.append(best_ms(lambda: analyze_instance(spec, arr, deep=True)))
    if not fast:
        return 0, None, None
    return len(fast), statistics.median(fast), statistics.median(deep)


def main(argv):
    parser = argparse.ArgumentParser(
        prog=Path(argv[0]).name,
        description="Print the median fast and deep analyze_instance times and "
                    "their ratio per field and d.")
    parser.add_argument("--d", type=int, nargs="+", default=[6, 12, 16], metavar="D",
                        help="diameters to time (default: 6 12 16)")
    parser.add_argument("--samples", type=int, default=3, metavar="N",
                        help="seeded samples per family, field and d (default: 3)")
    args = parser.parse_args(argv[1:])
    if min(args.d) < 1 or args.samples < 1:
        parser.error("--d and --samples take positive integers")
    print(f"{'field':<12} {'d':>3} {'specs':>5} {'fast_ms':>9} {'deep_ms':>9} {'ratio':>7}")
    for label in FIELDS:
        for d in args.d:
            n, fast, deep = cost(label, d, args.samples)
            if not n:
                print(f"{label:<12} {d:>3} {0:>5} {'-':>9} {'-':>9} {'-':>7}")
                continue
            print(f"{label:<12} {d:>3} {n:>5} {fast:>9.3f} {deep:>9.3f} {deep / fast:>6.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
