"""Acceptance suite.

Each criterion is one test that prints a PASS/FAIL line.  The randomized
criteria share one standard campaign run: all 13 families, d from 3 to 6
(the d = 3 characteristic-2 family contributes its two standard fields),
20 seeded valid parameter points per cell, unconditioned plus every
condition-forced mode, all with exact zero-tolerance comparisons.

Criterion 6 also asserts the literal span test's negative answer: the
coefficient form g0*g0star is NOT in the plain linear span of the five
extracted certificate forms (the exact rank test jumps from 5 to 6).  A
witness point at which all five forms vanish while g0*g0star does not
backs that answer without the rank routine.  The vanishing of g0*g0star
is nevertheless certified exactly by the elimination steps, which use
the nonvanishing constraints; that route is asserted in the golden test.
"""

import hashlib
import io
import random
import time

import pytest

from leonardz.campaign import render_report, run_campaign
from leonardz.cli import main, render_analysis
from leonardz.counterexample import (KNOWN_ORDER, base_matrices,
                                     certificate_forms, counterexample_d2)
from leonardz.exactfield import ExtensionField, Rationals, parse_field
from leonardz.families import FAMILIES
from leonardz.parray import ALL_TYPES, LeonardType
from leonardz.realization import primitive_idempotents
from leonardz.analysis import analyze_instance, verify_pi2
from leonardz.sampling import modes_for_type, sample_spec

QQ = Rationals()

SEED = 7
TRIALS = 20
D_RANGE = (3, 6)
HEIGHT = 12


def _report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="session")
def full_campaign():
    collected = []
    report = run_campaign(d_min=D_RANGE[0], d_max=D_RANGE[1], trials=TRIALS,
                          seed=SEED, height=HEIGHT, collector=collected)
    return report, collected


def _cells(name):
    if name is LeonardType.ORPHAN:
        return [(3, ExtensionField(2, 2)), (3, ExtensionField(2, 3))]
    return [(d, QQ) for d in range(D_RANGE[0], D_RANGE[1] + 1)]


def test_criterion_1_interior_identity_factor_table():
    """Exact delta = Q * factor at 20 seeded points per family and diameter."""
    start = time.perf_counter()
    checked = 0
    for name in ALL_TYPES:
        for d, ctx in _cells(name):
            rng = random.Random(f"acceptance1|{name.value}|{d}|{ctx.label()}")
            for _ in range(TRIALS):
                spec = sample_spec(name, d, ctx, rng, HEIGHT)
                verify_pi2(spec)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(1, ok, f"{checked} instances, {elapsed:.1f}s")
    assert checked == (12 * 4 + 2) * TRIALS
    assert ok, f"interior identity sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_2_nonzero_space_tables(full_campaign):
    """Table route equals rank route on every sample, forced rows included."""
    report, collected = full_campaign
    bad = [f"{c.type_name} d={c.d} {c.mode}: {msg}"
           for c in report.cells for msg in c.failures
           if "z_nonzero" in msg or "forced condition" in msg]
    agree = all(chk.flags["z_nonzero_table_matches_rank"]
                for _, _, chk in collected)
    forced = [chk for cell, _, chk in collected if cell.mode.startswith("z:")]
    forced_ok = all(chk.zreport.dim_z > 0 for chk in forced)
    ok = not bad and agree and forced_ok and report.skip_count == 0
    _report(2, ok, f"{len(collected)} instances, {len(forced)} condition-forced")
    assert ok, bad[:5]


def test_criterion_3_dimension_two_rows(full_campaign):
    """Forced rows give rank 2, dim 2, constant diagonal intersection numbers."""
    report, collected = full_campaign
    dim2 = [chk for cell, _, chk in collected if cell.mode == "dim2"]
    row_ok = all(chk.zreport.rank_m == 2 and chk.zreport.dim_z == 2
                 and chk.flags.get("dim2_constant_a")
                 and chk.flags["dim2_table_matches_rank"] for chk in dim2)
    pred_ok = all(chk.flags["dim2_table_matches_rank"]
                  for _, _, chk in collected)
    worked = analyze_instance(
        __import__("conftest").make_krawtchouk("1/2"))
    worked_ok = worked.a == [QQ("3/2")] * 4 and worked.zreport.dim_z == 2
    ok = bool(dim2) and row_ok and pred_ok and worked_ok
    _report(3, ok, f"{len(dim2)} forced dim-2 instances")
    assert ok


def test_criterion_4_relation_and_basis_tables(full_campaign):
    """On every nonzero-space sample: relation row holds, closed bases span."""
    _, collected = full_campaign
    nonzero = [chk for _, _, chk in collected if chk.zreport.dim_z > 0]
    problems = []
    for chk in nonzero:
        for flag in ("relation_holds", "closed_generator_nonzero",
                     "closed_generator_zero_diagonal",
                     "closed_generator_in_kernel_span"):
            if not chk.flags.get(flag, False):
                problems.append((chk.spec.name.value, flag))
        if chk.zreport.dim_z == 1 and not chk.flags.get("dim1_spans_match"):
            problems.append((chk.spec.name.value, "dim1_spans_match"))
        if chk.zreport.dim_z == 2 and not (
                chk.flags.get("dim2_pair_zero_diagonal")
                and chk.flags.get("dim2_pair_spans")):
            problems.append((chk.spec.name.value, "dim2_pair"))
    ok = bool(nonzero) and not problems
    _report(4, ok, f"{len(nonzero)} nonzero-space instances")
    assert ok, problems[:5]


def test_criterion_5_internal_consistency(full_campaign):
    """Trace vs closed, L = T*M, ranks, det T, commutator, independence."""
    _, collected = full_campaign
    names = ("a_trace_equals_closed", "a_standard_equals_closed",
             "L_equals_TM", "rank_L_equals_rank_M", "det_T_value",
             "commutator_zero_diagonal", "x_generators_independent",
             "dependence_equivalences", "rank_bounds")
    problems = [(chk.spec.name.value, flag)
                for _, _, chk in collected for flag in names
                if not chk.flags[flag]]
    ok = not problems
    _report(5, ok, f"{len(collected)} instances x {len(names)} checks")
    assert ok, problems[:5]


def test_criterion_6_boundary_example_golden():
    """Projections, patterns, known forms, and the certified vanishing."""
    start = time.perf_counter()
    report = counterexample_d2()
    elapsed = time.perf_counter() - start
    ok = report.patterns_hold and len(report.elimination_steps) == 6 and elapsed < 1.0
    _report(6, ok, f"{elapsed * 1000:.0f}ms")
    assert ok


def _bilinear(form, g, g_star):
    """Value of sum_ij form[i][j] * g_i * g*_j."""
    return sum((form[i][j] * g[i] * g_star[j]
                for i in range(3) for j in range(3)), QQ(0))


def test_criterion_6_span_membership_as_stated():
    """Literal linear-span membership of g0*g0star in the five entry forms.

    The answer is no: the five forms span a 5-dimensional space of
    coefficient matrices that does not contain g0*g0star (rank jumps to
    6 when it is added), so no linear combination of the five entry
    equations alone yields g0*g0star = 0.  The conclusion follows only
    after dividing by coefficients that invertibility keeps nonzero, as
    the elimination steps in the golden test certify.

    A second route, free of the rank routine, confirms the answer: at
    g = (1, -3, 1), g* = (1, 0, 0) each of the five forms read off by
    certificate_forms from freshly computed projections vanishes while
    g0*g*0 = 1, so g0*g0star is outside their span and even outside the
    ideal they generate.
    """
    report = counterexample_d2()
    a, a_star, eigs = base_matrices()
    forms = certificate_forms(a, a_star,
                              primitive_idempotents(a, eigs, QQ),
                              primitive_idempotents(a_star, eigs, QQ))
    g = [QQ(1), QQ(-3), QQ(1)]
    g_star = [QQ(1), QQ(0), QQ(0)]
    values = {key: _bilinear(forms[key], g, g_star) for key in KNOWN_ORDER}
    witness_ok = (all(v == QQ(0) for v in values.values())
                  and g[0] * g_star[0] != QQ(0))
    ok = (report.g0g0star_in_span is False
          and (report.rank_five_forms, report.rank_with_g0g0star) == (5, 6)
          and witness_ok)
    _report("6-span", ok,
            f"rank {report.rank_five_forms} -> {report.rank_with_g0g0star}")
    assert ok, (
        f"in_span = {report.g0g0star_in_span}; forms at g = (1, -3, 1), "
        "g* = (1, 0, 0): " + ", ".join(
            f"entry{key} = {value}" for key, value in values.items()))


def test_criterion_7_spin_characterization(full_campaign):
    """Three spin routes agree on self-dual samples; self-dual Krawtchouk spins."""
    _, collected = full_campaign
    self_dual = [chk for cell, _, chk in collected
                 if cell.mode in ("self-dual", "self-dual-spin")]
    routes_ok = all(chk.flags.get("spin_routes_agree")
                    and chk.flags.get("self_dual_array_consistent")
                    for chk in self_dual)
    kraw = [chk for chk in self_dual
            if chk.spec.name is LeonardType.KRAWTCHOUK]
    kraw_ok = bool(kraw) and all(chk.spin is True for chk in kraw)
    forced = [chk for cell, _, chk in collected
              if cell.mode == "self-dual-spin"]
    forced_ok = bool(forced) and all(chk.spin is True for chk in forced)
    ok = bool(self_dual) and routes_ok and kraw_ok and forced_ok
    _report(7, ok, f"{len(self_dual)} self-dual instances")
    assert ok


def test_criterion_8_report_determinism():
    """Byte-identical verification reports for equal seed and arguments."""
    argv = ["verify-tables", "--types",
            "krawtchouk,dual-hahn,orphan", "--d-min", "3", "--d-max", "4",
            "--trials", "5", "--seed", str(SEED)]
    outputs = []
    for _ in range(2):
        stdout = io.StringIO()
        code = main(argv, stdout=stdout, stderr=io.StringIO())
        assert code == 0
        outputs.append(stdout.getvalue())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(8, ok, f"{len(outputs[0])} bytes")
    assert ok


def test_campaign_zero_failures(full_campaign):
    """The standard campaign itself must be clean end to end."""
    report, collected = full_campaign
    _report("campaign", report.ok,
            f"{report.pass_count} passes, {report.failure_count} failures")
    assert report.ok
    assert report.pass_count == len(collected)


# SHA-256 of the behaviour contract, recorded on the Fraction backend.
GOLDEN_REPORT = "a0c66cfbc5a3eb5b4e400336d738e815a899de3a801250cc054ad7a0e8ef153b"
GOLDEN_ANALYSES = "95f6d1a0fddd7abbe64cbcbaa394e48b43b179a728f5de031bebb93fc0971aac"
GOLDEN_COUNTEREXAMPLE = (
    "e2e7e283371750209810de01cfbed1ac094b1a45eee4f77dbb1230899f065a19")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_digests(full_campaign):
    """The seed-7 report, every collected analysis and the boundary example
    are byte-identical to the recorded outputs."""
    report, collected = full_campaign
    analyses = "".join(render_analysis(chk) for _, _, chk in collected)
    stdout = io.StringIO()
    code = main(["counterexample"], stdout=stdout, stderr=io.StringIO())
    got = (_sha256(render_report(report)), _sha256(analyses),
           _sha256(stdout.getvalue()))
    ok = code == 0 and got == (GOLDEN_REPORT, GOLDEN_ANALYSES,
                               GOLDEN_COUNTEREXAMPLE)
    _report("golden", ok, f"{len(collected)} analyses")
    assert len(collected) == 2600
    assert got == (GOLDEN_REPORT, GOLDEN_ANALYSES, GOLDEN_COUNTEREXAMPLE)
    assert code == 0


# SHA-256 of fast and deep analyses over finite fields, recorded on the
# Fraction backend (the finite-field elements do not depend on it).
GOLDEN_FIELD_ANALYSES = (
    "37117dfa359b73644244b6eefaa0af1f62b417b2a6f3cad8d1ddacaaa5695d9c")


def finite_field_samples():
    """One seeded spec per mode of every family over GF(1000003), of the
    seven q-families over GF(3^4) and of the orphan over GF(2^3), at
    d = 3, 8 and 12 where the family admits the diameter."""
    q_families = [name for name in ALL_TYPES if "q" in FAMILIES[name].params]
    for label, names in (("GF(1000003)", [n for n in ALL_TYPES if n is not LeonardType.ORPHAN]),
                         ("GF(3^4)", q_families),
                         ("GF(2^3)", [LeonardType.ORPHAN])):
        ctx = parse_field(label)
        for name in names:
            fam = FAMILIES[name]
            for d in (3, 8, 12):
                if fam.diameter not in (None, d) or (
                        fam.characteristic is not None
                        and not fam.characteristic.allows(ctx.characteristic, d)):
                    continue
                for mode in modes_for_type(name, d, ctx):
                    rng = random.Random(f"golden|{label}|{name.value}|{d}|{mode}")
                    yield sample_spec(name, d, ctx, rng, mode=mode)


def test_finite_field_analysis_digest():
    """Fast and deep analyze reports over GF(p) and GF(p^k) are byte-identical
    to the recorded ones; the samples reach dim Z = 0, 1 and 2."""
    digest = hashlib.sha256()
    dims = set()
    for spec in finite_field_samples():
        for deep in (False, True):
            chk = analyze_instance(spec, deep=deep)
            assert chk.ok, (spec, chk.failures)
            digest.update(render_analysis(chk).encode("utf-8"))
        dims.add(chk.zreport.dim_z)
    assert dims == {0, 1, 2}
    assert digest.hexdigest() == GOLDEN_FIELD_ANALYSES
