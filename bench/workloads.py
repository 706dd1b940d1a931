"""The benchmark workloads: inputs made from a seed, units of work, verdicts.

A workload is run as a sequence of units numbered k = 0, 1, 2, ...; a unit
is one family's campaign or one analyzed instance.  Every unit returns the
verdict time of each instance it covered, the instances whose verdict was
bad, and a digest of the report it rendered.  The package is driven only
through its public functions and receives only the generated specs (or,
for the campaign, a seed).

Why these workloads:

campaign         the verify-tables path over all 13 families, d 3..6, every
                 sampling mode: many small instances (n = 4..7), so fixed
                 per-instance costs, sampling, parray, verify_pi2 and
                 small-matrix rank tests carry weight.
analyze-q-large  fast analyze_instance on Q specs at d = 12..16: large
                 matrices with growing rational heights, dominated by
                 mat_mul and solve_matrix in the spectral layer.
analyze-gf-deep  the `leonardz analyze` command in process (deep mode,
                 rendering included) over GF(1000003) and GF(3^4) at
                 d = 10..12: no height growth, wrapper-object elements, and
                 verify_axioms on top.  The control for Q-only changes.
"""

from __future__ import annotations

import hashlib
import io
import random
import time
from dataclasses import dataclass, field

CAMPAIGN_TRIALS = 1
CAMPAIGN_FAMILIES = 13
# Distinct units per run seed; unit k is unit k mod these.  At this
# commit a 30 s run uses about a third of each, so inputs start to repeat
# only in a run about 3x faster.
CAMPAIGN_PASSES = 48
Q_LARGE_POOL = 240
GF_DEEP_POOL = 192
GF_PRIME = "GF(1000003)"
GF_EXTENSION = "GF(3^4)"


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Unit:
    times_ms: list
    attempted: int
    bad: list
    digest: str = ""
    specs: list = field(default_factory=list)


class TimedCollector(list):
    """A run_campaign collector that timestamps every append.

    run_campaign appends (cell, trial, checks) once an instance has its
    verdict; an instance that raises never reaches append.
    """

    def __init__(self):
        super().__init__()
        self.stamps = []

    def append(self, item):
        self.stamps.append(time.perf_counter())
        super().append(item)


def _missed_expectation(mode, chk):
    """The benchmark's own check of what a forced sampling mode promises."""
    dim_z = chk.zreport.dim_z
    if mode.startswith("z:") and dim_z == 0:
        return f"forced {mode} but dim Z = 0"
    if mode == "dim2" and dim_z != 2:
        return f"forced dim2 but dim Z = {dim_z}"
    if mode in ("self-dual", "self-dual-spin") and not chk.self_dual:
        return f"forced {mode} but not self-dual"
    if mode == "self-dual-spin" and chk.spin is not True:
        return "forced self-dual-spin but no spin"
    return None


def _trial_index(line):
    """The trial number of a campaign failure or skip line 'trial k: ...'."""
    return int(line.split(":", 1)[0].split()[1])


class Campaign:
    """verify-tables one family at a time: run_campaign(types=[family]), render_report.

    Unit k runs family k mod 13 with campaign seed seed * 1000 + pass, pass =
    k // 13 mod CAMPAIGN_PASSES, so a stride of 13 units is one whole
    campaign pass (130 cells), cell for cell the same instances as one
    run_campaign call over all families.  The units are per family, about
    0.15 s each, so that the reference loop run between units follows the
    host's speed closely (see speed.py).
    """

    name = "campaign"
    stride = CAMPAIGN_FAMILIES
    instance_span = "sampling.sample_spec"
    distinct_units = CAMPAIGN_PASSES * CAMPAIGN_FAMILIES

    def setup(self, lz, seed):
        if len(lz.ALL_TYPES) != self.stride:
            raise RuntimeError(f"expected {self.stride} families, found {len(lz.ALL_TYPES)}")
        # Warm-up: one small campaign touches every family and mode once.
        lz.campaign.run_campaign(d_min=3, d_max=3, trials=1, seed=seed)
        return seed

    def run_unit(self, lz, seed, k):
        k %= self.distinct_units
        collector = TimedCollector()
        start = time.perf_counter()
        report = lz.campaign.run_campaign(
            types=[lz.ALL_TYPES[k % self.stride]], trials=CAMPAIGN_TRIALS,
            seed=seed * 1000 + k // self.stride, collector=collector)
        text = lz.campaign.render_report(report)
        stamps = [start] + collector.stamps
        times = [(b - a) * 1000 for a, b in zip(stamps, stamps[1:])]

        problems = {}
        for cell, trial, chk in collector:
            found = problems.setdefault((id(cell), trial), [])
            found.extend(chk.failures)
            missed = _missed_expectation(cell.mode, chk)
            if missed:
                found.append(missed)
        attempted = 0
        for cell in report.cells:
            skipped = {_trial_index(line) for line in cell.skips}
            attempted += cell.trials - len(skipped)
            for trial in range(cell.trials):
                if trial not in skipped and (id(cell), trial) not in problems:
                    problems[id(cell), trial] = ["raised"]
            for line in cell.failures:
                problems[id(cell), _trial_index(line)].append(line)
        cells = {id(cell): cell for cell in report.cells}
        bad = [f"{cells[key].type_name} d={cells[key].d} {cells[key].field_label} "
               f"{cells[key].mode} trial {trial}: {'; '.join(found)}"
               for (key, trial), found in problems.items() if found]
        specs = [chk.spec for _, _, chk in collector]
        return Unit(times, attempted, bad, digest(text), specs)


def _draw_spec(lz, type_, d, ctx, rng):
    """sample_spec with a bounded number of fresh retry budgets."""
    for _ in range(10):
        try:
            return lz.sample_spec(type_, d, ctx, rng)
        except lz.errors.SamplingExhausted:
            continue
    raise RuntimeError(f"cannot sample {type_.value} d={d} over {ctx.label()}")


class AnalyzeQLarge:
    """Fast analyze_instance, then the analyze report, on Q specs at d = 12..16.

    Instance k has family k mod 12 and d = 12 + k mod 5, so every run of
    whole strides holds each diameter equally often.
    """

    name = "analyze-q-large"
    stride = 5
    instance_span = "analysis.analyze_instance"
    distinct_units = Q_LARGE_POOL

    def setup(self, lz, seed):
        ctx = lz.Rationals()
        families = [t for t in lz.ALL_TYPES if t is not lz.LeonardType.ORPHAN]
        pool = []
        for k in range(self.distinct_units):
            rng = random.Random(f"{seed}|{self.name}|{k}")
            pool.append(_draw_spec(lz, families[k % len(families)], 12 + k % 5, ctx, rng))
        self.run_unit(lz, pool, 0)
        return pool

    def run_unit(self, lz, pool, k):
        spec = pool[k % len(pool)]
        start = time.perf_counter()
        chk = lz.analysis.analyze_instance(spec)
        text = lz.cli.render_analysis(chk)
        elapsed = (time.perf_counter() - start) * 1000
        bad = [f"instance {k}: {', '.join(chk.failures)}"] if chk.failures else []
        return Unit([elapsed], 1, bad, digest(text), [spec])


def _analyze_argv(lz, spec):
    mapping = lz.spec_to_mapping(spec)
    argv = ["analyze", "--type", mapping.pop("type"), "--d", mapping.pop("d"),
            "--field", mapping.pop("field"), "--theta0", mapping.pop("theta0"),
            "--theta-star0", mapping.pop("theta_star0")]
    for key, value in mapping.items():
        argv += ["--param", f"{key}={value}"]
    return argv


class AnalyzeGFDeep:
    """`leonardz analyze` (cli.main, deep mode) on GF(p) and GF(3^4) specs.

    The field and d set the time of an instance.  A stride holds
    GF(1000003) at d = 10, 11 once and at d = 12 three times, then GF(3^4)
    at d = 10, 11, 12 once, so in whole strides the median falls inside the
    GF(1000003), d = 12 group and not on the edge between two groups.
    GF(3^4) has characteristic 3 <= d, so only the seven q-families live
    there.
    """

    name = "analyze-gf-deep"
    slots = ((GF_PRIME, 10), (GF_PRIME, 11), (GF_PRIME, 12), (GF_PRIME, 12),
             (GF_PRIME, 12), (GF_EXTENSION, 10), (GF_EXTENSION, 11), (GF_EXTENSION, 12))
    stride = len(slots)
    instance_span = "analysis.analyze_instance"
    distinct_units = GF_DEEP_POOL

    def setup(self, lz, seed):
        fields = {label: lz.parse_field(label) for label in (GF_PRIME, GF_EXTENSION)}
        T = lz.LeonardType
        families = {
            GF_PRIME: [t for t in lz.ALL_TYPES if t is not T.ORPHAN],
            GF_EXTENSION: [T.Q_RACAH, T.Q_HAHN, T.DUAL_Q_HAHN, T.QUANTUM_Q_KRAWTCHOUK,
                           T.Q_KRAWTCHOUK, T.AFFINE_Q_KRAWTCHOUK, T.DUAL_Q_KRAWTCHOUK],
        }
        pool = []
        for k in range(self.distinct_units):
            label, d = self.slots[k % self.stride]
            rng = random.Random(f"{seed}|{self.name}|{k}")
            spec = _draw_spec(lz, families[label][k % len(families[label])], d,
                              fields[label], rng)
            pool.append((spec, _analyze_argv(lz, spec)))
        self.run_unit(lz, pool, 0)
        return pool

    def run_unit(self, lz, pool, k):
        spec, argv = pool[k % len(pool)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = lz.cli.main(argv, stdout=out, stderr=err)
        elapsed = (time.perf_counter() - start) * 1000
        if code != 0:
            reason = err.getvalue().strip() or "INCONSISTENT"
            return Unit([], 1, [f"instance {k}: exit {code}: {reason}"])
        return Unit([elapsed], 1, [], digest(out.getvalue()), [spec])


WORKLOADS = {w.name: w for w in (Campaign(), AnalyzeQLarge(), AnalyzeGFDeep())}
