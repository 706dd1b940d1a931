import time
from dataclasses import replace

import pytest

from conftest import QQ, bidiagonal_idempotents
from leonardz import linalg
from leonardz.counterexample import (
    KNOWN_FORMS,
    KNOWN_ORDER,
    base_matrices,
    certificate_forms,
    counterexample_d2,
    render_report,
    run_elimination,
    tridiagonal_patterns_hold,
)
from leonardz.realization import primitive_idempotents


def projections():
    """The boundary pair and E, E* as counterexample_d2 builds them, by the
    product formula on the dense A and A*."""
    a, a_star, eigs = base_matrices()
    return (a, a_star, primitive_idempotents(a, eigs, QQ),
            primitive_idempotents(a_star, eigs, QQ))


def test_full_report_passes_quickly():
    start = time.perf_counter()
    report = counterexample_d2()
    elapsed = time.perf_counter() - start
    assert report.patterns_hold
    assert len(report.elimination_steps) == 6
    assert elapsed < 1.0


@pytest.mark.parametrize("flag", ["patterns_hold"])
def test_report_ok_needs_each_pass_flag(flag):
    report = counterexample_d2()
    assert report.ok
    assert not replace(report, **{flag: False}).ok


def test_recorded_scales():
    report = counterexample_d2()
    assert report.form_scales[(2, 2)] == QQ(3)
    assert report.form_scales[(2, 1)] == QQ("1/12")
    assert report.form_scales[(2, 0)] == QQ("1/12")
    assert report.form_scales[(0, 1)] == QQ("1/16")
    assert report.form_scales[(1, 0)] == QQ("1/16")


def test_span_facts_are_as_computed():
    # the five normalized entry forms are independent, and the g0*g0star
    # form is NOT in their plain linear span; the vanishing conclusion
    # genuinely needs the nonvanishing constraints used by the elimination
    report = counterexample_d2()
    assert report.rank_five_forms == 5
    assert report.rank_with_g0g0star == 6
    assert report.g0g0star_in_span is False


def test_entry_22_form_is_antisymmetric_pair():
    a, a_star, e, estar = projections()
    form = certificate_forms(a, a_star, e, estar)[(2, 2)]
    assert form[1][2] == QQ(3)
    assert form[2][1] == QQ(-3)
    assert sum(1 for i in range(3) for j in range(3) if form[i][j]) == 2


def test_entry_10_form_matches_known_coefficients():
    a, a_star, e, estar = projections()
    form = certificate_forms(a, a_star, e, estar)[(1, 0)]
    scale_text, known = KNOWN_FORMS[(1, 0)]
    scale = QQ(scale_text)
    for i in range(3):
        for j in range(3):
            assert form[i][j] == scale * QQ(known[i][j])


def test_patterns_hold():
    a, a_star, e, estar = projections()
    assert tridiagonal_patterns_hold(a, a_star, e, estar)


def test_factor_route_matches_product_formula():
    """The substitution route (the tests' bidiagonal_idempotents), given
    the eigenvalues and the pair's off-diagonals, gives the projections
    that counterexample_d2 forms by the product formula."""
    a, a_star, e, estar = projections()
    _, _, eigs = base_matrices()
    sub, sup = [a[r + 1][r] for r in range(2)], [a_star[r][r + 1] for r in range(2)]
    assert e == bidiagonal_idempotents(eigs, sub, QQ).transpose().projections()
    assert estar == bidiagonal_idempotents(eigs, sup, QQ).projections()


@pytest.mark.parametrize("inner", ["A", "A_star"])
def test_patterns_fail_with_identity_inner(inner):
    # Distinct projections are orthogonal, so with I between them every
    # product at |i - j| = 1 vanishes.
    a, a_star, e, estar = projections()
    eye = linalg.identity(3, QQ)
    args = (eye, a_star) if inner == "A" else (a, eye)
    assert not tridiagonal_patterns_hold(*args, e, estar)


def test_patterns_fail_with_all_ones_inner():
    # E_i J E_j = (E_i 1)(1^T E_j).  The E* side, with the true A, passes,
    # and E_0 J E_1 is nonzero as it must be, so the first check to fail
    # is E_0 J E_2, nonzero at |i - j| = 2.
    a, _, e, estar = projections()
    ones = [[QQ(1)] * 3 for _ in range(3)]
    for j in (1, 2):
        assert not linalg.is_zero_matrix(linalg.mat_mul(linalg.mat_mul(e[0], ones), e[j]))
    assert not tridiagonal_patterns_hold(a, ones, e, estar)


def test_elimination_runs_on_known_forms():
    normalized = {key: [[QQ(x) for x in row] for row in KNOWN_FORMS[key][1]]
                  for key in KNOWN_ORDER}
    steps = run_elimination(normalized)
    assert steps[-1].relation.startswith("so g*0 = 0")


def test_displayed_idempotent_rows():
    _, _, _, estar = projections()
    assert estar[0][0] == [QQ(1), QQ(1), QQ("9/4")]
    assert estar[2][1] == [QQ(0), QQ(0), QQ(-3)]


def test_render_contains_key_lines():
    text = render_report(counterexample_d2())
    assert "E_star0 row 0 = 1, 1, 9/4" in text
    assert "g0*g0star in linear span of five forms: no" in text
    assert "g0*g0star vanishes given invertibility: yes" in text
    assert "conclusion: certificate pair impossible, no spin" in text


def test_projection_mismatch_names_the_entry(monkeypatch):
    from leonardz import counterexample
    from leonardz.errors import MismatchAtEntry

    wrong = [list(map(list, m)) for m in counterexample.EXPECTED_E_STAR]
    wrong[1][0][2] = "4"
    monkeypatch.setattr(counterexample, "EXPECTED_E_STAR", wrong)
    with pytest.raises(MismatchAtEntry) as err:
        counterexample_d2()
    assert (err.value.label, err.value.entry) == ("E_star1", (0, 2))
    assert (err.value.got, err.value.expected) == ("-3", "4")
