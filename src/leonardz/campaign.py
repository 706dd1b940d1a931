"""Randomized verification campaign over all families and diameters.

For every (type, d, field, mode) cell the campaign draws seeded valid
samples, runs each through the full cross-checked pipeline, and checks the
interior identity plus the mode's expectations (forced conditions must
produce the promised rank, dimension, relation, and spin outcomes).

Cell seeding is derived from the master seed and the cell key as a string,
so reports are byte-identical across runs with equal arguments.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass, field as dc_field

from .analysis import analyze_instance, verify_pi2
from .errors import LeonardError, SamplingExhausted
from .exactfield import parse_field
from .families import FAMILIES
from .parray import ALL_TYPES, _build_array, spec_to_mapping
from .parray import build_parameter_array  # noqa: F401  (bench/tracing.py wraps this name)
from .sampling import (
    DEFAULT_HEIGHT,
    MODE_DIM2,
    MODE_SELF_DUAL,
    MODE_SELF_DUAL_SPIN,
    modes_for_type,
    sample_spec,
)

DEFAULT_TRIALS = 20
DEFAULT_SEED = 7
DEFAULT_D_MIN = 3
DEFAULT_D_MAX = 6


@dataclass
class CellResult:
    type_name: str
    d: int
    field_label: str
    mode: str
    trials: int
    passes: int = 0
    failures: list = dc_field(default_factory=list)
    skips: list = dc_field(default_factory=list)
    # The replay command of each failing trial, keyed by the index of the
    # trial's last line in failures.
    replays: dict = dc_field(default_factory=dict)

    @property
    def skipped(self):
        return len(self.skips)


@dataclass
class CampaignReport:
    seed: int
    d_min: int
    d_max: int
    trials: int
    height: int
    types: list
    cells: list = dc_field(default_factory=list)

    @property
    def failure_count(self):
        return sum(len(c.failures) for c in self.cells)

    @property
    def pass_count(self):
        return sum(c.passes for c in self.cells)

    @property
    def skip_count(self):
        return sum(c.skipped for c in self.cells)

    @property
    def ok(self):
        return self.failure_count == 0


def replay_command(spec):
    """The `leonardz analyze` command line, quoted for a POSIX shell, that
    analyzes spec again; it names every key of spec_to_mapping."""
    mapping = spec_to_mapping(spec)
    argv = ["leonardz", "analyze", "--type", mapping.pop("type"), "--d", mapping.pop("d")]
    for key, value in mapping.items():
        argv += ["--param", f"{key}={value}"]
    return shlex.join(argv)


def _check_sample(spec, mode, collector, cell, trial):
    # sample_spec returns only specs that validate_spec has accepted.
    arr = _build_array(spec)
    chk = analyze_instance(spec, arr)
    verify_pi2(spec, arr, chk.a, chk.apm)
    problems = list(chk.failures)
    dim_z = chk.zreport.dim_z
    if mode.startswith("z:") and dim_z == 0:
        problems.append(f"forced condition {mode} but dim Z = 0")
    if mode == MODE_DIM2 and dim_z != 2:
        problems.append(f"forced {mode} but dim Z = {dim_z}")
    if mode in (MODE_SELF_DUAL, MODE_SELF_DUAL_SPIN):
        if not chk.self_dual:
            problems.append("forced self-duality not detected")
        if mode == MODE_SELF_DUAL_SPIN and chk.spin is not True:
            problems.append("forced spin condition but spin is false")
        if FAMILIES[spec.name].spins_when_self_dual and chk.spin is not True:
            problems.append(f"self-dual {spec.name.value} must have spin")
    if collector is not None:
        collector.append((cell, trial, chk))
    return problems


def run_campaign(types=None, d_min=DEFAULT_D_MIN, d_max=DEFAULT_D_MAX,
                 trials=DEFAULT_TRIALS, seed=DEFAULT_SEED,
                 height=DEFAULT_HEIGHT, collector=None):
    """Run all cells; returns a CampaignReport (deterministic in its arguments)."""
    if types is None:
        types = list(ALL_TYPES)
    report = CampaignReport(seed=seed, d_min=d_min, d_max=d_max, trials=trials,
                            height=height, types=[t.value for t in types])
    for name in types:
        fam = FAMILIES[name]
        for d in range(d_min, d_max + 1):
            for ctx in map(parse_field, fam.fields):
                for mode in modes_for_type(name, d, ctx):
                    cell = CellResult(name.value, d, ctx.label(), mode, trials)
                    rng = random.Random(
                        f"{seed}|{name.value}|{d}|{ctx.label()}|{mode}")
                    for trial in range(trials):
                        try:
                            spec = sample_spec(name, d, ctx, rng, height, mode)
                        except SamplingExhausted as e:
                            cell.skips.append(f"trial {trial}: {e}")
                            continue
                        # Division by zero over Q raises the builtin error, not
                        # a LeonardError; both fail the trial, not the run.
                        try:
                            problems = _check_sample(spec, mode, collector,
                                                     cell, trial)
                        except (LeonardError, ZeroDivisionError) as e:
                            problems = [f"{type(e).__name__}: {e}"]
                        if problems:
                            cell.failures.extend(
                                f"trial {trial}: {p}" for p in problems)
                            cell.replays[len(cell.failures) - 1] = replay_command(spec)
                        else:
                            cell.passes += 1
                    report.cells.append(cell)
    return report


def render_report(report):
    """Line-oriented text form of a campaign report; stable and diff-able."""
    lines = [
        "campaign:",
        f"  seed = {report.seed}",
        f"  d_min = {report.d_min}",
        f"  d_max = {report.d_max}",
        f"  trials = {report.trials}",
        f"  height = {report.height}",
        f"  types = {','.join(report.types)}",
        "cells:",
    ]
    for c in report.cells:
        lines.append(
            f"  cell type={c.type_name} d={c.d} field={c.field_label} "
            f"mode={c.mode} trials={c.trials} passes={c.passes} "
            f"skipped={c.skipped} failures={len(c.failures)}")
        for n, f in enumerate(c.failures):
            lines.append(f"    failure: {f}")
            if n in c.replays:
                lines.append(f"    replay: {c.replays[n]}")
        for sk in c.skips:
            lines.append(f"    skip: {sk}")
    lines.append("summary:")
    lines.append(f"  cells = {len(report.cells)}")
    lines.append(f"  passes = {report.pass_count}")
    lines.append(f"  skipped = {report.skip_count}")
    lines.append(f"  failures = {report.failure_count}")
    lines.append(f"result: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"
