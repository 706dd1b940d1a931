import io
import shlex

from leonardz.campaign import render_report, run_campaign
from leonardz.parray import LeonardType


def test_small_campaign_passes():
    report = run_campaign(types=[LeonardType.KRAWTCHOUK, LeonardType.DUAL_HAHN],
                          d_min=3, d_max=4, trials=3, seed=11)
    assert report.ok
    assert report.failure_count == 0
    assert report.skip_count == 0
    assert report.pass_count == sum(c.trials for c in report.cells)


def test_orphan_cells_limited_to_d3():
    report = run_campaign(types=[LeonardType.ORPHAN], d_min=3, d_max=6,
                          trials=2, seed=5)
    assert report.ok
    assert {c.d for c in report.cells} == {3}
    assert {c.field_label for c in report.cells} == {"GF(2^2)", "GF(2^3)"}


def test_render_is_deterministic():
    kwargs = dict(types=[LeonardType.KRAWTCHOUK], d_min=3, d_max=3,
                  trials=4, seed=21)
    text1 = render_report(run_campaign(**kwargs))
    text2 = render_report(run_campaign(**kwargs))
    assert text1 == text2
    assert "result: PASS" in text1


def test_render_seed_changes_content():
    kwargs = dict(types=[LeonardType.Q_RACAH], d_min=3, d_max=3, trials=2)
    t1 = render_report(run_campaign(seed=1, **kwargs))
    t2 = render_report(run_campaign(seed=2, **kwargs))
    assert t1 != t2


def test_conditioned_cells_present():
    report = run_campaign(types=[LeonardType.Q_RACAH], d_min=3, d_max=3,
                          trials=1, seed=3)
    modes = {c.mode for c in report.cells}
    assert modes == {"generic", "z:s_star=r1^2", "z:s_star=r2^2", "dim2",
                     "self-dual", "self-dual-spin"}


def test_zero_division_fails_one_trial_not_the_run(monkeypatch):
    from leonardz import campaign

    options = dict(types=[LeonardType.KRAWTCHOUK, LeonardType.DUAL_HAHN],
                   d_min=3, d_max=4, trials=3, seed=11)
    cells = [(c.type_name, c.d, c.field_label, c.mode)
             for c in run_campaign(**options).cells]
    analyze = campaign.analyze_instance
    calls = []

    def analyze_once_failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ZeroDivisionError("Fraction(1, 0)")
        return analyze(*args, **kwargs)

    monkeypatch.setattr(campaign, "analyze_instance", analyze_once_failing)
    report = run_campaign(**options)
    assert [(c.type_name, c.d, c.field_label, c.mode) for c in report.cells] == cells
    assert report.failure_count == 1
    assert report.cells[0].failures == ["trial 1: ZeroDivisionError: Fraction(1, 0)"]
    assert report.pass_count == sum(c.trials for c in report.cells) - 1
    assert "result: FAIL" in render_report(report)


def test_each_sampled_spec_is_validated_once(monkeypatch):
    # The sampler validates every spec it returns; the campaign then builds
    # the array without validating the spec again, but checks the array.
    from leonardz import parray, sampling

    validated, arrays = [], []
    validate_spec, validate_array = sampling.validate_spec, parray.ParameterArray.validate

    def counted_spec(spec):
        out = validate_spec(spec)
        validated.append(not out)
        return out

    def counted_array(arr):
        arrays.append(arr)
        return validate_array(arr)

    monkeypatch.setattr(sampling, "validate_spec", counted_spec)
    monkeypatch.setattr(parray, "validate_spec", counted_spec)
    monkeypatch.setattr(parray.ParameterArray, "validate", counted_array)
    report = run_campaign(types=[LeonardType.Q_RACAH, LeonardType.KRAWTCHOUK],
                          d_min=3, d_max=4, trials=2, seed=13)
    assert report.ok
    verdicts = report.pass_count
    assert verdicts > 0
    assert validated.count(True) == verdicts
    assert len(arrays) == verdicts


def test_boundary_products_once_per_verdict(monkeypatch):
    # analyze_instance computes a_minus and a_plus for the zero diagonal
    # space, and verify_pi2 reuses them.
    from leonardz import zerodiag

    calls = []
    compute_apm = zerodiag.compute_apm

    def counted(a, theta_star):
        calls.append(len(a))
        return compute_apm(a, theta_star)

    monkeypatch.setattr(zerodiag, "compute_apm", counted)
    report = run_campaign(types=[LeonardType.Q_RACAH, LeonardType.BANNAI_ITO],
                          d_min=3, d_max=4, trials=2, seed=17)
    assert report.ok
    assert report.pass_count > 0
    assert len(calls) == report.pass_count


def test_failing_trial_prints_a_replay_that_parses_back(monkeypatch):
    from leonardz import campaign, cli
    from leonardz.parray import spec_from_mapping, spec_to_mapping

    check, failing = campaign._check_sample, []

    def failing_trial_one(spec, mode, collector, cell, trial):
        problems = check(spec, mode, collector, cell, trial)
        if trial != 1:
            return problems
        failing.append(spec)
        return problems + ["forced", "twice"]

    monkeypatch.setattr(campaign, "_check_sample", failing_trial_one)
    report = run_campaign(types=[LeonardType.KRAWTCHOUK, LeonardType.ORPHAN],
                          d_min=3, d_max=3, trials=2, seed=5)
    lines = render_report(report).splitlines()
    assert {spec.field.label() for spec in failing} >= {"Q", "GF(2^2)"}
    replays = [line.removeprefix("    replay: ") for line in lines if "replay:" in line]
    assert len(replays) == len(failing) == len(report.cells)
    for cell in report.cells:
        assert cell.failures == ["trial 1: forced", "trial 1: twice"]
    for n, line in enumerate(lines):
        if line.startswith("    replay: "):
            assert lines[n - 2:n] == ["    failure: trial 1: forced",
                                      "    failure: trial 1: twice"]
    parser = cli.build_parser()
    for spec, line in zip(failing, replays):
        argv = shlex.split(line)
        assert argv[:2] == ["leonardz", "analyze"]
        args = parser.parse_args(cli._attach_element_values(argv[1:], parser.analyze_options))
        replayed = spec_from_mapping(cli._spec_mapping_from_args(args))
        assert spec_to_mapping(replayed) == spec_to_mapping(spec)


def test_exhausted_sampling_skips_the_trial_and_the_run_passes(monkeypatch):
    from leonardz import campaign
    from leonardz.errors import SamplingExhausted

    draw, calls = campaign.sample_spec, []

    def exhausted_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise SamplingExhausted("no valid draw in 3 tries")
        return draw(*args, **kwargs)

    monkeypatch.setattr(campaign, "sample_spec", exhausted_once)
    report = run_campaign(types=[LeonardType.KRAWTCHOUK], d_min=3, d_max=3,
                          trials=3, seed=11)
    lines = render_report(report).splitlines()
    first = report.cells[0]
    assert (first.passes, first.skipped, first.failures) == (2, 1, [])
    n = lines.index("cells:") + 1
    assert lines[n].endswith(" trials=3 passes=2 skipped=1 failures=0")
    assert lines[n + 1] == "    skip: trial 1: no valid draw in 3 tries"
    assert "  skipped = 1" in lines and lines[-1] == "result: PASS"


def test_missed_forced_expectations_fail_with_a_replay(monkeypatch):
    # Every cell draws in generic mode, so a cell that forces a condition
    # meets an instance without it.
    from leonardz import campaign, cli

    draw = campaign.sample_spec
    monkeypatch.setattr(campaign, "sample_spec", lambda name, d, ctx, rng, height, mode:
                        draw(name, d, ctx, rng, height, "generic"))
    report = run_campaign(types=[LeonardType.Q_RACAH, LeonardType.KRAWTCHOUK],
                          d_min=3, d_max=3, trials=1, seed=3)
    not_self_dual = "forced self-duality not detected"
    expected = {
        ("q-racah", "generic"): [],
        ("q-racah", "z:s_star=r1^2"): ["forced condition z:s_star=r1^2 but dim Z = 0"],
        ("q-racah", "z:s_star=r2^2"): ["forced condition z:s_star=r2^2 but dim Z = 0"],
        ("q-racah", "dim2"): ["forced dim2 but dim Z = 0"],
        ("q-racah", "self-dual"): [not_self_dual],
        ("q-racah", "self-dual-spin"): [not_self_dual, "forced spin condition but spin is false"],
        ("krawtchouk", "generic"): [],
        ("krawtchouk", "dim2"): ["forced dim2 but dim Z = 1"],
        ("krawtchouk", "self-dual"): [not_self_dual, "self-dual krawtchouk must have spin"],
    }
    assert {(c.type_name, c.mode): [f.removeprefix("trial 0: ") for f in c.failures]
            for c in report.cells} == expected
    lines = render_report(report).splitlines()
    assert lines[-1] == "result: FAIL"
    n = lines.index("    failure: trial 0: forced condition z:s_star=r1^2 but dim Z = 0")
    replay = lines[n + 1].removeprefix("    replay: ")
    assert replay.startswith("leonardz analyze --type q-racah --d 3 ")
    out = io.StringIO()
    assert cli.main(shlex.split(replay)[1:], stdout=out) == cli.EXIT_OK
    assert "  dim_Z = 0\n" in out.getvalue()
