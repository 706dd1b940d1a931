import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leonardz.cli import (
    EXIT_INVALID_SPEC,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)


def run_cli(argv, env=None, monkeypatch=None):
    stdout, stderr = io.StringIO(), io.StringIO()
    if env is not None and monkeypatch is not None:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def test_analyze_worked_instance():
    code, out, _ = run_cli([
        "analyze", "--type", "krawtchouk", "--d", "3", "--field", "Q",
        "--param", "s=1", "--param", "s_star=1", "--param", "r=2"])
    assert code == EXIT_OK
    assert "dim_Z = 1" in out
    assert "spin = true" in out
    assert "self_dual = true" in out
    assert "result: OK" in out


def test_analyze_invalid_krawtchouk_exits_2():
    code, _, err = run_cli([
        "analyze", "--type", "krawtchouk", "--d", "3", "--field", "Q",
        "--param", "s=1", "--param", "s_star=1", "--param", "r=1"])
    assert code == EXIT_INVALID_SPEC
    assert "r-product" in err


def test_analyze_orphan_over_q_unsupported():
    code, _, err = run_cli([
        "analyze", "--type", "orphan", "--d", "3", "--field", "Q",
        "--param", "h=1", "--param", "h_star=1", "--param", "s=2",
        "--param", "s_star=2", "--param", "r=3"])
    assert code == EXIT_INVALID_SPEC
    assert "UnsupportedCharacteristic" in err


def test_analyze_orphan_over_gf4():
    code, out, _ = run_cli([
        "analyze", "--type", "orphan", "--d", "3", "--field", "GF(2^2)",
        "--param", "h=1", "--param", "h_star=1", "--param", "s=t",
        "--param", "s_star=t", "--param", "r=t"])
    assert code == EXIT_OK
    assert "dim_Z = 0" in out


def test_analyze_dual_hahn_zero_space():
    code, out, _ = run_cli([
        "analyze", "--type", "dual-hahn", "--d", "3", "--field", "Q",
        "--param", "h=1", "--param", "s=1", "--param", "s_star=1",
        "--param", "r=1"])
    assert code == EXIT_OK
    assert "dim_Z = 0" in out
    assert "z_nonzero = false" in out
    assert "spin = false" in out


@pytest.mark.parametrize("d", ["17", "400"])
def test_analyze_diameter_above_max_exits_2(d):
    code, _, err = run_cli([
        "analyze", "--type", "krawtchouk", "--d", d, "--field", "Q",
        "--param", "s=1", "--param", "s_star=1", "--param", "r=2"])
    assert code == EXIT_INVALID_SPEC
    assert f"d must be <= 16; got {d}" in err


def test_verify_tables_d_max_above_max_exits_1():
    code, _, err = run_cli(["verify-tables", "--types", "krawtchouk",
                            "--d-max", "17", "--trials", "1"])
    assert code == EXIT_USAGE
    assert "--d-max must be at most 16" in err


def test_usage_errors_exit_1():
    code, _, err = run_cli(["analyze", "--d", "3"])
    assert code == EXIT_USAGE
    assert "type" in err
    code, _, _ = run_cli(["verify-tables", "--d-min", "2"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["bogus-command"])
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["analyze", "--type", "krawtchouk", "--d", "3",
                          "--param", "oops"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("head, theta0, theta_star0, shown", [
    (["--field", "Q", "--type", "krawtchouk", "--d", "3", "--param", "s=1",
      "--param", "s_star=1", "--param", "r=2"], "-1/2", "-3",
     "  theta0 = -1/2\n  theta_star0 = -3\n"),
    (["--field", "GF(3^2)", "--type", "dual-q-krawtchouk", "--d", "3",
      "--param", "q=t", "--param", "h=t+2", "--param", "h_star=1",
      "--param", "s=t+1"], "-t", "-t+1",
     "  theta0 = 2*t\n  theta_star0 = 2*t+1\n"),
], ids=["Q", "GF(3^2)"])
def test_negative_literal_after_theta_options(head, theta0, theta_star0, shown):
    spaced = run_cli(["analyze"] + head + ["--theta0", theta0,
                                          "--theta-star0", theta_star0])
    joined = run_cli(["analyze"] + head + [f"--theta0={theta0}",
                                          f"--theta-star0={theta_star0}"])
    # argparse takes a unique prefix of an option for the option.
    abbreviated = run_cli(["analyze"] + head + ["--theta0", theta0,
                                                "--theta-s", theta_star0])
    assert spaced == joined == abbreviated
    assert spaced[0] == EXIT_OK
    assert shown in spaced[1]


def test_ambiguous_theta_prefix_is_usage_error():
    code, _, err = run_cli(["analyze", "--type", "krawtchouk", "--d", "3",
                            "--theta", "-1"])
    assert code == EXIT_USAGE
    assert "ambiguous" in err


def test_theta_option_without_value_is_usage_error():
    code, _, err = run_cli(["analyze", "--type", "krawtchouk", "--d", "3",
                            "--theta0", "--param", "s=1"])
    assert code == EXIT_USAGE
    assert "--theta0" in err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("type = krawtchouk\nd = 3\nfield = Q\n"
                   "s = 1\ns_star = 1\nr = 1\n")
    code, _, _ = run_cli(["analyze", "--config", str(cfg)])
    assert code == EXIT_INVALID_SPEC
    code, out, _ = run_cli(["analyze", "--config", str(cfg),
                            "--param", "r=2"])
    assert code == EXIT_OK
    assert "r = 2" in out


def test_missing_config_file_is_usage_error(tmp_path):
    code, _, _ = run_cli(["analyze", "--config", str(tmp_path / "nope.cfg")])
    assert code == EXIT_USAGE


def test_verify_tables_small_run():
    argv = ["verify-tables", "--types", "krawtchouk", "--d-min", "3",
            "--d-max", "3", "--trials", "2", "--seed", "7"]
    code, out, _ = run_cli(argv)
    assert code == EXIT_OK
    assert "result: PASS" in out
    code2, out2, _ = run_cli(argv)
    assert out == out2


def test_verify_tables_types_filter():
    code, out, _ = run_cli(["verify-tables", "--types", "orphan",
                            "--trials", "1", "--seed", "3"])
    assert code == EXIT_OK
    assert "type=orphan" in out
    assert "type=q-racah" not in out


def test_seed_env_fallback(monkeypatch):
    argv = ["verify-tables", "--types", "krawtchouk", "--d-min", "3",
            "--d-max", "3", "--trials", "1"]
    _, with_env, _ = run_cli(argv, env={"LEONARD_SEED": "99"},
                             monkeypatch=monkeypatch)
    assert "seed = 99" in with_env
    _, explicit, _ = run_cli(argv + ["--seed", "99"])
    assert with_env == explicit


def test_counterexample_command():
    code, out, _ = run_cli(["counterexample"])
    assert code == EXIT_OK
    assert "idempotents_match = yes" in out
    assert "E_star0 row 0 = 1, 1, 9/4" in out


def test_verify_tables_config(tmp_path):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text("types = krawtchouk\nd_min = 3\nd_max = 3\n"
                   "trials = 1\nseed = 13\n")
    code, out, _ = run_cli(["verify-tables", "--config", str(cfg)])
    assert code == EXIT_OK
    assert "seed = 13" in out
    code, out2, _ = run_cli(["verify-tables", "--config", str(cfg),
                             "--trials", "2"])
    assert "trials = 2" in out2


KRAW = ["--type", "krawtchouk", "--d", "3", "--param", "s=1",
        "--param", "s_star=1", "--param", "r=2"]  # KRAW[:-2] leaves r out


def gf25_dual_q_krawtchouk(**literals):
    """A valid dual q-Krawtchouk analyze line over GF(5^2), with the
    parameters named in literals given as those literals."""
    params = {"q": "t", "h": "t+4", "h_star": "1", "s": "t", **literals}
    argv = ["analyze", "--type", "dual-q-krawtchouk", "--d", "3", "--field", "GF(5^2)"]
    for key, value in params.items():
        argv += ["--param", f"{key}={value}"]
    return argv


NO_D = ["analyze"] + KRAW[:2] + KRAW[4:]
D_MAX_BELOW_D_MIN = ["verify-tables", "--d-min", "5", "--d-max", "4", "--trials", "1"]
NO_TRIALS = ["verify-tables", "--trials", "0"]
ORPHAN_D4 = ["analyze", "--type", "orphan", "--d", "4", "--field", "GF(2^2)",
             "--param", "h=1", "--param", "h_star=1", "--param", "s=t",
             "--param", "s_star=t", "--param", "r=t+1"]


@pytest.mark.parametrize("argv, config, expected", [
    (["analyze", "--field", "GF(4)"] + KRAW, None, EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(2^40)"] + KRAW, None, EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(x)"] + KRAW, None, EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(3317044064679887385961981)"] + KRAW, None,
     EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(618970019642690137449562111^2)"] + KRAW, None,
     EXIT_INVALID_SPEC),
    (["analyze", "--field", f"GF({'9' * 5000})"] + KRAW, None, EXIT_INVALID_SPEC),
    (["analyze", "--field", f"GF(3^{'9' * 5000})"] + KRAW, None, EXIT_INVALID_SPEC),
    (["analyze", "--type", "krawtchouk", "--d", "3", "--param", "s=1",
      "--param", "s_star=1", "--param", "r=x"], None, EXIT_INVALID_SPEC),
    (["analyze", "--field", "Q"] + KRAW[:-2] + ["--param", f"r={'9' * 5000}"], None,
     EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(7)"] + KRAW[:-2] + ["--param", f"r=1/{'9' * 5000}"], None,
     EXIT_INVALID_SPEC),
    (["analyze", "--field", "GF(3^2)"] + KRAW[:-2] + ["--param", f"r={'9' * 5000}t"], None,
     EXIT_INVALID_SPEC),
    (["analyze", "--config", "spec\0.cfg"], None, EXIT_USAGE),
    (["verify-tables", "--height", "0", "--trials", "1"], None, EXIT_USAGE),
    (["analyze", "--config", "{cfg}"],
     "type = krawtchouk\nd = x\ns = 1\ns_star = 1\nr = 2\n", EXIT_INVALID_SPEC),
    (["verify-tables", "--config", "{cfg}"], "d_min = x\n", EXIT_USAGE),
    (["verify-tables", "--config", "{cfg}"], b"types = \xff\n", EXIT_USAGE),
    (["verify-tables", "--types", ",", "--trials", "1"], None, EXIT_USAGE),
    (["verify-tables", "--types", "", "--trials", "1"], None, EXIT_USAGE),
    (["verify-tables", "--types", "orphan", "--d-min", "4", "--trials", "1"], None,
     EXIT_USAGE),
    (["verify-tables", "--config", "{cfg}"], "types = ,\ntrials = 1\n", EXIT_USAGE),
    (["verify-tables", "--config", "{cfg}"], "types = orphan\nd_min = 4\ntrials = 1\n",
     EXIT_USAGE),
    (["verify-tables", "--types", "bogus", "--trials", "1"], None, EXIT_USAGE),
    (["verify-tables", "--config", "{cfg}"], "types = krawtchouk,nope\ntrials = 1\n",
     EXIT_USAGE),
    (gf25_dual_q_krawtchouk(q="+"), None, EXIT_INVALID_SPEC),
    (gf25_dual_q_krawtchouk(q="-"), None, EXIT_INVALID_SPEC),
    (gf25_dual_q_krawtchouk(h_star="1-"), None, EXIT_INVALID_SPEC),
    (gf25_dual_q_krawtchouk(s="t+"), None, EXIT_INVALID_SPEC),
    (gf25_dual_q_krawtchouk(h="t--1"), None, EXIT_INVALID_SPEC),
    (gf25_dual_q_krawtchouk(q="-+t"), None, EXIT_INVALID_SPEC),
    (NO_D, None, EXIT_USAGE),
    (D_MAX_BELOW_D_MIN, None, EXIT_USAGE),
    (NO_TRIALS, None, EXIT_USAGE),
    (ORPHAN_D4, None, EXIT_INVALID_SPEC),
], ids=["gf4", "gf2^40", "gf-x", "gf-psi13", "gf-2^89-1-squared",
        "gf-5000-digit-p", "gf-5000-digit-k", "param-x", "q-5000-digit-literal",
        "gf-p-5000-digit-literal", "gf-pk-5000-digit-literal", "config-nul",
        "height-0", "config-d", "config-d-min", "config-not-utf8",
        "no-types", "empty-types", "no-cells", "config-no-types", "config-no-cells",
        "unknown-type", "config-unknown-type", "gf-pk-lone-plus", "gf-pk-lone-minus",
        "gf-pk-trailing-minus", "gf-pk-trailing-plus", "gf-pk-doubled-minus",
        "gf-pk-minus-plus", "no-d", "d-max-below-d-min", "trials-0", "orphan-d-4"])
def test_bad_input_is_one_line_error(tmp_path, argv, config, expected):
    cfg = tmp_path / "bad.cfg"
    if isinstance(config, str):
        cfg.write_text(config)
    elif config is not None:
        cfg.write_bytes(config)
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    code, out, err = run_cli(argv)
    assert code == expected
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (gf25_dual_q_krawtchouk(q="-+t"), "invalid spec (ParseError): bad term '' in '-+t'"),
    (NO_D, "usage error: missing --d (or a config with a d key)"),
    (D_MAX_BELOW_D_MIN, "usage error: --d-max must be at least --d-min"),
    (NO_TRIALS, "usage error: --trials must be at least 1"),
    (ORPHAN_D4, "invalid spec (InvalidSpec): orphan:d: d must be 3; got 4"),
], ids=["gf-pk-minus-plus", "no-d", "d-max-below-d-min", "trials-0", "orphan-d-4"])
def test_bad_input_names_its_cause(argv, message):
    assert run_cli(argv)[2] == message + "\n"


def test_one_signed_term_per_piece_parses():
    # The line the sign rows of test_bad_input_is_one_line_error bend is
    # valid, and so is one with a leading +, a leading - and "2t".
    for literals, shown in (({}, "  q = t\n  h = t+4\n"),
                            ({"q": "+t", "h": "-t+1", "s": "2t"}, "  q = t\n  h = 4*t+1\n")):
        code, out, _ = run_cli(gf25_dual_q_krawtchouk(**literals))
        assert code == EXIT_OK and shown in out and out.endswith("result: OK\n")


def test_internal_consistency_failure_exits_3(monkeypatch):
    from leonardz import cli
    from leonardz.errors import TableInconsistency

    def inconsistent(spec, deep=False):
        raise TableInconsistency("spin routes disagree on krawtchouk")

    monkeypatch.setattr(cli, "analyze_instance", inconsistent)
    code, out, err = run_cli(["analyze", "--field", "Q"] + KRAW)
    assert (code, out) == (cli.EXIT_INCONSISTENT, "")
    assert err == ("internal consistency failure (TableInconsistency): "
                   "spin routes disagree on krawtchouk\n")


def test_bad_seed_env_is_usage_error(monkeypatch):
    code, _, err = run_cli(["verify-tables", "--types", "krawtchouk",
                            "--trials", "1"], env={"LEONARD_SEED": "abc"},
                           monkeypatch=monkeypatch)
    assert code == EXIT_USAGE
    assert err == "usage error: LEONARD_SEED must be an integer; got 'abc'\n"


def test_values_past_the_integer_string_limit_print_in_full():
    # b_i and c_i of this Krawtchouk instance have more than 4300 digits.
    big = "7" * 3000
    code, out, _ = run_cli(["analyze", "--type", "krawtchouk", "--d", "3",
                            "--field", "Q", "--param", f"s={big}",
                            "--param", f"s_star={big}", "--param", f"r={big}"])
    assert code == EXIT_OK
    assert f"  r = {big}\n" in out
    assert max(len(word) for word in out.split()) > 4300


@pytest.mark.parametrize("argv", [["--help"], ["analyze", "-h"]])
def test_help_goes_to_stdout_and_exits_0(argv):
    code, out, err = run_cli(argv)
    assert code == EXIT_OK
    assert out.startswith("usage: leonardz")
    assert err == ""


def test_module_entry_point_from_checkout():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "leonardz", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("usage: leonardz")


def test_one_parser_serves_every_call(monkeypatch):
    """main reuses one parser per process; no call leaves state behind
    (--param values do not pile up), so each output equals that of the
    same command run alone in a fresh process."""
    assert build_parser() is build_parser()
    monkeypatch.setenv("COLUMNS", "72")
    calls = [
        ["analyze", "--type", "krawtchouk", "--d", "3", "--field", "Q",
         "--param", "s=1", "--param", "s_star=1", "--param", "r=2"],
        ["--help"],
        ["analyze", "--help"],
        ["analyze", "--type", "krawtchouk", "--d", "3", "--field", "GF(7)",
         "--param", "s=2", "--param", "s_star=3", "--param", "r=4"],
        ["analyze", "--type", "krawtchouk", "--d", "3", "--field", "Q",
         "--param", "s=1", "--param", "s_star=1"],
    ]
    in_process = [run_cli(argv) for argv in calls]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="72")
    for argv, (code, out, err) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "leonardz", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [EXIT_OK] * 4 + [EXIT_INVALID_SPEC]
