"""Command line front end.

Three subcommands:

    analyze         run one instance through the full pipeline
    verify-tables   run the randomized verification campaign
    counterexample  recompute and certify the diameter-2 boundary example

Exit codes: 0 success, 1 usage error, 2 invalid spec, 3 internal
consistency failure.  Reports are deterministic functions of the
arguments and seed, printed as line-oriented key/value text with exact
element strings only.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .analysis import analyze_instance
from .campaign import (
    DEFAULT_D_MAX,
    DEFAULT_D_MIN,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    render_report,
    run_campaign,
)
from .counterexample import counterexample_d2
from .counterexample import render_report as render_counterexample
from .errors import InvalidField, InvalidSpec, LeonardError, ParseError
from .parray import ALL_TYPES, MAX_D, LeonardType, spec_from_mapping, spec_to_mapping
from .sampling import DEFAULT_HEIGHT, modes_for_type

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_SPEC = 2
EXIT_INCONSISTENT = 3

SEED_ENV_VAR = "LEONARD_SEED"


class UsageError(Exception):
    pass


class HelpRequested(Exception):
    """Raised by -h/--help instead of exiting; carries the help text."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):
        raise HelpRequested(self.format_help())


def read_config(path):
    """Parse a config file of one `key = value` pair per line.

    A leading UTF-8 byte-order mark is skipped, and a key given on two
    lines is a usage error that names both.
    """
    out, lines_of = {}, {}
    if "\0" in path:
        raise UsageError(f"{path!r}: a file name cannot hold a NUL byte")
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError:
            raise UsageError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise UsageError(f"{path}:{lineno}: key {key!r} repeats line {lines_of[key]}")
        out[key], lines_of[key] = value.strip(), lineno
    return out


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, since argparse copies an `append` default before appending
    and reads the terminal width only when it formats help."""
    parser = _Parser(prog="leonardz",
                     description="Exact verification toolkit for Leonard "
                                 "systems and their zero diagonal spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one instance")
    pa.add_argument("--type", dest="type_name")
    pa.add_argument("--d", type=int)
    pa.add_argument("--field", default=None)
    pa.add_argument("--theta0")
    pa.add_argument("--theta-star0", dest="theta_star0")
    pa.add_argument("--param", action="append", default=[],
                    metavar="NAME=VALUE")
    pa.add_argument("--config")
    parser.analyze_options = tuple(pa._option_string_actions)

    pv = sub.add_parser("verify-tables", help="run the verification campaign")
    pv.add_argument("--d-min", dest="d_min", type=int, default=None)
    pv.add_argument("--d-max", dest="d_max", type=int, default=None)
    pv.add_argument("--trials", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--types")
    pv.add_argument("--height", type=int, default=None)
    pv.add_argument("--config")

    sub.add_parser("counterexample", help="run the fixed boundary example")
    return parser


# Options whose value is an element literal, which may start with "-"
# ("-1/2", "-t") where argparse would read it as an option.
_ELEMENT_OPTIONS = ("--theta0", "--theta-star0")


def _attach_element_values(argv, options):
    """argv with each `--theta0 VALUE` joined into `--theta0=VALUE`.

    An element option may be named as argparse takes it: in full or by a
    prefix that begins no other of the analyze command's `options`
    (`--theta-s` for `--theta-star0`).  A VALUE starting with "--" is
    left apart, so a missing value stays a usage error.
    """
    def element_option(tok):
        if not tok.startswith("--"):
            return False
        hits = [tok] if tok in options else [o for o in options if o.startswith(tok)]
        return len(hits) == 1 and hits[0] in _ELEMENT_OPTIONS

    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if (i + 1 < len(argv) and not argv[i + 1].startswith("--")
                and element_option(tok)):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _spec_mapping_from_args(args):
    mapping = {}
    if args.config:
        mapping.update(read_config(args.config))
    if args.type_name is not None:
        mapping["type"] = args.type_name
    if args.d is not None:
        mapping["d"] = str(args.d)
    if args.field is not None:
        mapping["field"] = args.field
    if args.theta0 is not None:
        mapping["theta0"] = args.theta0
    if args.theta_star0 is not None:
        mapping["theta_star0"] = args.theta_star0
    params = {}
    for item in args.param:
        if "=" not in item:
            raise UsageError(f"--param expects NAME=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise UsageError(f"--param {key} is given twice")
        params[key] = value.strip()
    mapping.update(params)
    if "type" not in mapping:
        raise UsageError("missing --type (or a config with a type key)")
    if "d" not in mapping:
        raise UsageError("missing --d (or a config with a d key)")
    return mapping


def _fmt_bool(x):
    return "true" if x else "false"


def _seq_line(fmt, values):
    return ", ".join(fmt(x) for x in values)


def _matrix_lines(out, label, mtx, fmt):
    for i, row in enumerate(mtx):
        out.append(f"  {label}.row{i} = {_seq_line(fmt, row)}")


def render_analysis(chk):
    spec = chk.spec
    fmt = spec.field.format
    out = ["spec:"]
    for key, value in spec_to_mapping(spec).items():
        out.append(f"  {key} = {value}")
    out.append("array:")
    out.append(f"  theta = {_seq_line(fmt, chk.arr.theta)}")
    out.append(f"  theta_star = {_seq_line(fmt, chk.arr.theta_star)}")
    out.append(f"  phi1 = {_seq_line(fmt, chk.arr.phi1)}")
    out.append(f"  phi2 = {_seq_line(fmt, chk.arr.phi2)}")
    out.append("intersection_numbers:")
    out.append(f"  a = {_seq_line(fmt, chk.nums.a)}")
    out.append(f"  b = {_seq_line(fmt, chk.nums.b)}")
    out.append(f"  c = {_seq_line(fmt, chk.nums.c)}")
    out.append(f"  a_minus = {_seq_line(fmt, chk.apm.a_minus)}")
    out.append(f"  a_plus = {_seq_line(fmt, chk.apm.a_plus)}")
    out.append("zspace:")
    out.append(f"  rank_M = {chk.zreport.rank_m}")
    out.append(f"  dim_Z = {chk.zreport.dim_z}")
    _matrix_lines(out, "M", chk.zreport.M, fmt)
    _matrix_lines(out, "T", chk.zreport.T, fmt)
    _matrix_lines(out, "L", chk.zreport.L, fmt)
    for k, coeffs in enumerate(chk.zreport.coeff_basis):
        out.append(f"  kernel{k} = {_seq_line(fmt, coeffs)}")
    for k, mtx in enumerate(chk.zreport.matrix_basis):
        _matrix_lines(out, f"Z{k}", mtx, fmt)
    out.append("predicates:")
    out.append(f"  z_nonzero = {_fmt_bool(chk.z_nonzero_pred)}")
    out.append(f"  condition = {chk.z_condition or 'none'}")
    out.append(f"  dim2 = {_fmt_bool(chk.dim2_pred)}")
    out.append(f"  self_dual = {_fmt_bool(chk.self_dual)}")
    out.append(f"  spin = {_fmt_bool(chk.spin)}")
    out.append(f"  relation_row = {chk.relation_row or 'none'}")
    out.append("consistency:")
    for name in sorted(chk.flags):
        out.append(f"  {name} = {'pass' if chk.flags[name] else 'FAIL'}")
    out.append(f"result: {'OK' if chk.ok else 'INCONSISTENT'}")
    return "\n".join(out) + "\n"


def cmd_analyze(args, stdout):
    mapping = _spec_mapping_from_args(args)
    spec = spec_from_mapping(mapping)
    chk = analyze_instance(spec, deep=True)
    stdout.write(render_analysis(chk))
    return EXIT_OK if chk.ok else EXIT_INCONSISTENT


def _integer(text, source):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{source} must be an integer; got {text!r}") from None


def _resolve(args, config, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return _integer(config[key], key)
    return default


CAMPAIGN_KEYS = ("d_min", "d_max", "trials", "seed", "types", "height")


def cmd_verify_tables(args, stdout):
    config = read_config(args.config) if args.config else {}
    unknown = [key for key in config if key not in CAMPAIGN_KEYS]
    if unknown:
        raise UsageError(f"{args.config}: unknown key {unknown[0]!r}; "
                         f"the keys are {', '.join(CAMPAIGN_KEYS)}")
    d_min = _resolve(args, config, "d_min", DEFAULT_D_MIN)
    d_max = _resolve(args, config, "d_max", DEFAULT_D_MAX)
    trials = _resolve(args, config, "trials", DEFAULT_TRIALS)
    height = _resolve(args, config, "height", DEFAULT_HEIGHT)
    seed = _resolve(args, config, "seed", None)
    if seed is None and os.environ.get(SEED_ENV_VAR):
        seed = _integer(os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
    if seed is None:
        seed = DEFAULT_SEED
    types_text = args.types if args.types is not None else config.get("types")
    if types_text is None:
        types = list(ALL_TYPES)
    else:
        try:
            types = [LeonardType.from_string(t) for t in types_text.split(",") if t]
        except InvalidSpec as e:
            raise UsageError(f"--types {types_text!r}: {e.violations[0].detail}") from None
        if not types:
            raise UsageError(f"--types {types_text!r} names no family")
    if d_min < 3:
        raise UsageError("--d-min must be at least 3")
    if d_max < d_min:
        raise UsageError("--d-max must be at least --d-min")
    if d_max > MAX_D:
        raise UsageError(f"--d-max must be at most {MAX_D}")
    if trials < 1:
        raise UsageError("--trials must be at least 1")
    if height < 1:
        raise UsageError("--height must be at least 1")
    if not any(modes_for_type(t, d) for t in types for d in range(d_min, d_max + 1)):
        raise UsageError(f"no campaign cell for --types {','.join(t.value for t in types)}"
                         f" at d {d_min}..{d_max}")
    report = run_campaign(types=types, d_min=d_min, d_max=d_max, trials=trials,
                          seed=seed, height=height)
    stdout.write(render_report(report))
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def cmd_counterexample(stdout):
    report = counterexample_d2()
    stdout.write(render_counterexample(report))
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_element_values(sys.argv[1:] if argv is None else argv,
                                   parser.analyze_options))
        if args.command == "analyze":
            return cmd_analyze(args, stdout)
        if args.command == "verify-tables":
            return cmd_verify_tables(args, stdout)
        if args.command == "counterexample":
            return cmd_counterexample(stdout)
        raise UsageError(f"unknown command {args.command!r}")
    except HelpRequested as e:
        stdout.write(str(e))
        return EXIT_OK
    except UsageError as e:
        stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE
    except (InvalidSpec, InvalidField, ParseError) as e:
        stderr.write(f"invalid spec ({type(e).__name__}): {e}\n")
        return EXIT_INVALID_SPEC
    except LeonardError as e:
        stderr.write(f"internal consistency failure ({type(e).__name__}): {e}\n")
        return EXIT_INCONSISTENT
    except OSError as e:
        stderr.write(f"usage error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
