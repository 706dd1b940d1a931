"""Hypothesis fuzz of the command line: every input ends in an exit code.

`main` must turn any argv list and any `verify-tables --config` text into
one of the exit codes 0..3, without letting an exception escape.  Element
literals are either short or past Python's 4300-digit limit on integer
strings; literals of a few hundred digits and more make the exact
arithmetic of a valid instance take seconds, so they are left to the
fixed cases in test_cli.py.  Bare `verify-tables` runs the whole default
campaign, so that subcommand is only fuzzed through a config that names
one or two families.  The fixed cases at the end pin what a config file
or a repeated option may hold.
"""

import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from leonardz.cli import main
from leonardz.families import FAMILIES
from leonardz.parray import ALL_TYPES

EXIT_CODES = {0, 1, 2, 3}
FAMILY_PARAMS = {t.value: FAMILIES[t].params for t in ALL_TYPES}
PARAM_NAMES = sorted({p for params in FAMILY_PARAMS.values() for p in params}
                     | {"theta0", "theta_star0"})
# GF(61^2) is the largest field with tables, GF(67^2) the smallest
# without them at k = 2.
FIELDS = ["Q", "QQ", "GF(7)", "GF(1000003)", "GF(2^2)", "GF(3^2)", "GF(3^4)",
          "GF(61^2)", "GF(67^2)", "GF(4)", "GF(x)", "GF(2^40)", ""]
FUZZ = settings(max_examples=60, deadline=None)


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in stderr.getvalue()


def nines(head="", tail=""):
    """A literal whose digit run is past Python's 4300-digit limit."""
    return st.integers(4301, 5000).map(lambda k: head + "9" * k + tail)


junk_literals = st.one_of(
    st.sampled_from(["", " ", "x", "--1", "1/0", "t^9", "1/t"]),
    st.text(alphabet="0123456789t+-*/^ ", max_size=6))
rational_literals = st.one_of(
    st.integers(-30, 30).map(str),
    st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 9)),
    st.builds("-{}/{}".format, st.integers(1, 30), st.integers(1, 9)),
    nines(), nines("-"), nines("1/"), junk_literals)
polynomial_literals = st.one_of(
    st.integers(0, 30).map(str),
    st.sampled_from(["t", "t+1", "2*t+1", "t^2+t", "-t", "-t+1", "-2*t^2"]),
    nines(), nines(tail="*t"), nines("t^"), nines("3*t^"), junk_literals)


@st.composite
def analyze_argv(draw):
    """analyze with a real or bogus type, d in 0..6 or 17, and mostly the
    family's own parameter names with literals of the field's form."""
    type_name = draw(st.sampled_from(list(FAMILY_PARAMS) + ["bogus"]))
    names = [n for n in FAMILY_PARAMS.get(type_name, ("s", "r"))
             if draw(st.integers(0, 9))]  # now and then one is left out
    names += draw(st.lists(st.sampled_from(PARAM_NAMES), max_size=2))
    field = draw(st.sampled_from(FIELDS))
    literals = polynomial_literals if "^" in field else rational_literals
    argv = ["analyze", "--type", type_name,
            "--d", draw(st.sampled_from([str(d) for d in range(7)] + ["17"])),
            "--field", field]
    for name in names:
        argv += ["--param", f"{name}={draw(literals)}"]
    # theta0 and theta_star0 also as options, with the value as its own
    # word or joined by "=" (a value may start with "-").
    for option in ("--theta0", "--theta-star0"):
        form = draw(st.integers(0, 2))
        if form == 1:
            argv += [option, draw(literals)]
        elif form == 2:
            argv.append(f"{option}={draw(literals)}")
    return argv


@FUZZ
@given(analyze_argv())
def test_fuzz_analyze(argv):
    run(argv)


VOCABULARY = ["analyze", "counterexample", "--type", "--d", "--field", "--param",
              "--theta0", "--theta-star0", "--config", "--trials", "--seed",
              "--types", "-h", "krawtchouk", "3", "Q", "s=1", "r=2", "=",
              "-1/2", "-t", "-t+1"]


@FUZZ
@given(st.lists(st.one_of(st.sampled_from(VOCABULARY), st.text(max_size=8)),
                max_size=7))
def test_fuzz_argv(argv):
    run(argv)


config_lines = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["d_min", "d_max", "trials", "seed", "height"]),
              st.sampled_from(["3", "4", "0", "-2", "17", "x", "", "9" * 5000])),
    st.text(max_size=12).map(lambda s: s.replace("\n", " ").replace("\r", " ")),
)


@settings(max_examples=25, deadline=None)
@given(st.lists(config_lines, max_size=5),
       st.sampled_from(["krawtchouk", "orphan", "krawtchouk,orphan", "bogus", ","]))
def test_fuzz_verify_tables_config(lines, types):
    # The types line comes last, so a fuzzed line cannot widen the campaign.
    text = "\n".join(lines + [f"types = {types}"]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        run(["verify-tables", "--config", path, "--trials", "1"])


def outcome(argv, config=None, tmp_path=None):
    """(exit code, stdout, stderr) of main on argv, with "{cfg}" in argv
    replaced by a file holding the bytes config."""
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_bytes(config)
        argv = [str(path) if a == "{cfg}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


SMALL_CAMPAIGN = "types = krawtchouk\ntrials = 1\nd_max = 3\n"
KRAWTCHOUK_SPEC = "type = krawtchouk\nd = 3\nfield = Q\ns = 1\ns_star = 1\nr = 2\n"


@pytest.mark.parametrize("line, key", [
    ("type = orphan", "type"),
    ("d-max = 4", "d-max"),
    ("seeds = 5", "seeds"),
], ids=["type", "d-max", "seeds"])
def test_verify_tables_config_refuses_an_unknown_key(tmp_path, line, key):
    """A misspelt campaign key is a usage error that names it and the keys
    there are, not a silent run of the default campaign."""
    code, out, err = outcome(["verify-tables", "--config", "{cfg}"],
                             (SMALL_CAMPAIGN + line + "\n").encode(), tmp_path)
    assert (code, out) == (1, "")
    assert f"unknown key {key!r}" in err
    assert "d_min, d_max, trials, seed, types, height" in err


@pytest.mark.parametrize("argv, config, named", [
    (["verify-tables", "--config", "{cfg}"], SMALL_CAMPAIGN + "trials = 2\n",
     "run.cfg:4: key 'trials' repeats line 2"),
    (["analyze", "--config", "{cfg}"], KRAWTCHOUK_SPEC + "r = 5\n",
     "run.cfg:7: key 'r' repeats line 6"),
    (["analyze", "--config", "{cfg}"], "d = 3\n" + KRAWTCHOUK_SPEC,
     "run.cfg:3: key 'd' repeats line 1"),
    (["analyze", "--type", "krawtchouk", "--d", "3", "--param", "s=1", "--param", "s_star=1",
      "--param", "r = 2", "--param", "r=5"], None, "--param r is given twice"),
], ids=["campaign-config", "analyze-config", "analyze-config-first-line", "param"])
def test_a_repeated_key_is_a_usage_error(tmp_path, argv, config, named):
    """A key on two lines of one config file, or a --param name given
    twice, is a usage error naming the key (and both lines of a file),
    not the last value taken silently."""
    code, out, err = outcome(argv, None if config is None else config.encode(), tmp_path)
    assert (code, out) == (1, "")
    assert named in err


@pytest.mark.parametrize("command, config", [
    ("analyze", KRAWTCHOUK_SPEC),
    ("verify-tables", SMALL_CAMPAIGN),
], ids=["analyze", "verify-tables"])
def test_a_config_with_a_byte_order_mark_reads_as_without(tmp_path, command, config):
    """A file that starts with a UTF-8 byte-order mark gives the report of
    the same file without it: its first key is not read as '\\ufefftype'."""
    plain = outcome([command, "--config", "{cfg}"], config.encode(), tmp_path)
    marked = outcome([command, "--config", "{cfg}"], b"\xef\xbb\xbf" + config.encode(),
                     tmp_path)
    assert plain[0] == 0
    assert marked == plain
