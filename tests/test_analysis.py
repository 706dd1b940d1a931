import random

import pytest

from conftest import (
    QQ,
    bidiagonal_idempotents,
    campaign_cell_samples,
    dense_split,
    eigenvectors,
    families_over,
    make_krawtchouk,
)
from leonardz import analysis, linalg, realization, zerodiag
from leonardz.analysis import (
    analyze_instance,
    dim2_predicate,
    factor_for_type,
    pi2_delta,
    q_expression,
    relation_check,
    relation_coefficients,
    self_dual_array_check,
    self_dual_predicate,
    spin_predicate,
    verify_pi2,
    z_nonzero_predicate,
)
from leonardz.errors import (
    DependenceDetected,
    IdempotentCheckFailed,
    IdentityFailure,
    IndexOutOfRange,
    LeonardError,
)
from leonardz.exactfield import ExtensionField, PrimeFieldElement, parse_field
from leonardz.parray import ALL_TYPES, LeonardType, build_parameter_array
from leonardz.realization import intersection_a_closed
from leonardz.sampling import sample_spec
from leonardz.zerodiag import compute_apm


def ql(values):
    return [QQ(x) for x in values]


# -- the interior identity ---------------------------------------------------


def test_pi2_delta_diagonal_pairs_vanish():
    a, ts = ql([3, 2, 1, 0]), ql([0, 1, 2, 3])
    assert pi2_delta(a, ts, 1, 1) == QQ(0)
    assert pi2_delta(a, ts, 2, 2) == QQ(0)


def test_pi2_delta_krawtchouk_vanishes(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    a = intersection_a_closed(arr)
    assert pi2_delta(a, arr.theta_star, 1, 2) == QQ(0)


def test_pi2_delta_dual_hahn_hand_value(dual_hahn_spec):
    arr = build_parameter_array(dual_hahn_spec)
    a = intersection_a_closed(arr)
    assert a == ql([6, 9, 8, 3])
    assert pi2_delta(a, arr.theta_star, 1, 2) == QQ(-48)
    assert pi2_delta(a, arr.theta_star, 2, 1) == QQ(48)


def test_pi2_index_bounds():
    a, ts = ql([3, 2, 1, 0]), ql([0, 1, 2, 3])
    with pytest.raises(IndexOutOfRange):
        pi2_delta(a, ts, 0, 1)
    with pytest.raises(IndexOutOfRange):
        pi2_delta(a, ts, 1, 3)
    with pytest.raises(IndexOutOfRange):
        q_expression(ts, 3, 1)


def test_q_expression_hand_value():
    ts = ql([0, 1, 2, 3])
    assert q_expression(ts, 1, 2) == QQ(12)
    assert q_expression(ts, 2, 1) == QQ(-12)
    assert q_expression(ts, 1, 1) == QQ(0)


def test_q_expression_times_factor_matches_delta(dual_hahn_spec):
    arr = build_parameter_array(dual_hahn_spec)
    a = intersection_a_closed(arr)
    factor = factor_for_type(dual_hahn_spec)
    assert factor == QQ(-4)
    for i in (1, 2):
        for j in (1, 2):
            assert pi2_delta(a, arr.theta_star, i, j) == \
                q_expression(arr.theta_star, i, j) * factor


def test_factor_zero_rows(kraw_dim1, dual_q_krawtchouk_spec):
    assert factor_for_type(kraw_dim1) == QQ(0)
    assert factor_for_type(dual_q_krawtchouk_spec) == QQ(0)


def test_factor_sign_alternates_for_bannai_ito():
    rng = random.Random("bi-factor")
    odd = sample_spec(LeonardType.BANNAI_ITO, 3, QQ, rng)
    even = sample_spec(LeonardType.BANNAI_ITO, 4, QQ, rng)

    def explicit(spec):
        p = spec.params
        h, hs, ss = p["h"], p["h_star"], p["s_star"]
        core = h * h * hs * hs * (ss + 2 * p["r1"]) * (ss + 2 * p["r2"])
        return 64 * core if spec.d % 2 == 1 else -64 * core

    assert factor_for_type(odd) == explicit(odd)
    assert factor_for_type(even) == explicit(even)


def test_verify_pi2_all_exemplars(exemplar_specs):
    for spec in exemplar_specs.values():
        sides = verify_pi2(spec)
        assert len(sides) == (spec.d - 1) ** 2
        factor = factor_for_type(spec)
        for delta, q_value in sides.values():
            assert delta == q_value * factor


def test_verify_pi2_fails_at_first_broken_pair(monkeypatch):
    spec = sample_spec(LeonardType.Q_RACAH, 5, QQ, random.Random("pi2-broken"))
    arr = build_parameter_array(spec)
    a = intersection_a_closed(arr)
    wrong = factor_for_type(spec) + 1
    monkeypatch.setattr(analysis, "factor_for_type", lambda _spec: wrong)
    first = next((i, j) for i in range(1, spec.d) for j in range(1, spec.d)
                 if pi2_delta(a, arr.theta_star, i, j)
                 != q_expression(arr.theta_star, i, j) * wrong)
    with pytest.raises(IdentityFailure) as err:
        verify_pi2(spec, arr, a)
    assert (err.value.i, err.value.j) == first


def pi2_samples():
    """One sample per campaign cell, and one d = 16 sample per family over Q
    and over GF(1000003)."""
    yield from campaign_cell_samples()
    for label in ("Q", "GF(1000003)"):
        ctx = parse_field(label)
        for name in ALL_TYPES:
            if name is not LeonardType.ORPHAN:
                yield sample_spec(name, 16, ctx, random.Random(f"pi2|{name.value}|{label}"))


def first_pi2_failure(spec, a, ts, factor):
    """(i, j, delta, rhs) of the first failing pair of the unfactored
    row-major loop over every interior (i, j), or None."""
    for i in range(1, spec.d):
        for j in range(1, spec.d):
            delta = pi2_delta(a, ts, i, j)
            rhs = q_expression(ts, i, j) * factor
            if delta != rhs:
                return i, j, delta, rhs
    return None


def test_verify_pi2_witnesses_match_the_unfactored_sides():
    checked = 0
    for spec in pi2_samples():
        arr = build_parameter_array(spec)
        a = intersection_a_closed(arr)
        sides = verify_pi2(spec, arr, a)
        interior = range(1, spec.d)
        assert sorted(sides) == [(i, j) for i in interior for j in interior]
        for (i, j), (delta, q_value) in sides.items():
            assert delta == pi2_delta(a, arr.theta_star, i, j), (spec, i, j)
            assert q_value == q_expression(arr.theta_star, i, j), (spec, i, j)
        checked += 1
    assert checked == 130 + 2 * 12


def test_verify_pi2_failure_matches_the_unfactored_loop(monkeypatch):
    # A wrong factor breaks every pair off the diagonal, so the first failing
    # pair is (1, 2); a wrong a_{d-1} breaks at most the pairs through d - 1.
    original = analysis.factor_for_type
    seen = set()
    for spec in pi2_samples():
        arr = build_parameter_array(spec)
        a = intersection_a_closed(arr)
        broken_a = a[:]
        broken_a[spec.d - 1] = broken_a[spec.d - 1] + 1
        for a_used, factor in ((a, original(spec) + 1), (broken_a, original(spec))):
            monkeypatch.setattr(analysis, "factor_for_type", lambda _spec: factor)
            expected = first_pi2_failure(spec, a_used, arr.theta_star, factor)
            if expected is None:
                verify_pi2(spec, arr, a_used)
                continue
            with pytest.raises(IdentityFailure) as err:
                verify_pi2(spec, arr, a_used)
            got = (err.value.i, err.value.j, err.value.lhs, err.value.rhs)
            assert got == expected, spec
            seen.add(got[:2])
    assert {(1, 2), (1, 15)} <= seen


def test_verify_pi2_zero_delta_under_forced_condition():
    rng = random.Random("forced")
    spec = sample_spec(LeonardType.Q_RACAH, 4, QQ, rng, mode="z:s_star=r1^2")
    for delta, _ in verify_pi2(spec).values():
        assert delta == QQ(0)


# -- predicates ---------------------------------------------------------------


def test_z_nonzero_always_rows(exemplar_specs):
    expectations = {
        LeonardType.DUAL_Q_KRAWTCHOUK: True,
        LeonardType.HAHN: True,
        LeonardType.KRAWTCHOUK: True,
        LeonardType.DUAL_Q_HAHN: False,
        LeonardType.QUANTUM_Q_KRAWTCHOUK: False,
        LeonardType.Q_KRAWTCHOUK: False,
        LeonardType.AFFINE_Q_KRAWTCHOUK: False,
        LeonardType.DUAL_HAHN: False,
        LeonardType.ORPHAN: False,
    }
    for name, expected in expectations.items():
        got, _ = z_nonzero_predicate(exemplar_specs[name])
        assert got is expected, name


def test_z_nonzero_conditional_rows():
    rng = random.Random("cond")
    for name, mode, row in [
        (LeonardType.Q_RACAH, "z:s_star=r1^2", "q-racah:s_star=r1^2"),
        (LeonardType.Q_RACAH, "z:s_star=r2^2", "q-racah:s_star=r2^2"),
        (LeonardType.Q_HAHN, "z:s_star=r^2", "q-hahn:s_star=r^2"),
        (LeonardType.RACAH, "z:s_star=2r1", "racah:s_star=2r1"),
        (LeonardType.RACAH, "z:s_star=2r2", "racah:s_star=2r2"),
        (LeonardType.BANNAI_ITO, "z:s_star=-2r1", "bannai-ito:s_star=-2r1"),
        (LeonardType.BANNAI_ITO, "z:s_star=-2r2", "bannai-ito:s_star=-2r2"),
    ]:
        spec = sample_spec(name, 4, QQ, rng, mode=mode)
        got, condition = z_nonzero_predicate(spec)
        assert got and condition == row


def test_dim2_rows(kraw_dim2, kraw_dim1):
    assert dim2_predicate(kraw_dim2) is True
    assert dim2_predicate(kraw_dim1) is False
    rng = random.Random("dim2")
    for name, d in [(LeonardType.Q_RACAH, 3), (LeonardType.DUAL_Q_KRAWTCHOUK, 5),
                    (LeonardType.HAHN, 4), (LeonardType.BANNAI_ITO, 4)]:
        spec = sample_spec(name, d, QQ, rng, mode="dim2")
        assert dim2_predicate(spec) is True
    racah = sample_spec(LeonardType.RACAH, 3, QQ, rng)
    assert dim2_predicate(racah) is False


def test_relation_rows_hand_checked(kraw_dim1, dual_q_krawtchouk_spec):
    arr = build_parameter_array(kraw_dim1)
    apm = compute_apm(intersection_a_closed(arr), arr.theta_star)
    u, v, row = relation_coefficients(kraw_dim1)
    assert (u, v, row) == (QQ(1), QQ(1), "krawtchouk")
    assert relation_check(apm, u, v)

    arr = build_parameter_array(dual_q_krawtchouk_spec)
    apm = compute_apm(intersection_a_closed(arr), arr.theta_star)
    u, v, row = relation_coefficients(dual_q_krawtchouk_spec)
    assert (u, v) == (QQ(27), QQ(1))
    assert relation_check(apm, u, v)
    assert all(am * QQ(27) == ap for am, ap in zip(apm.a_minus, apm.a_plus))


def test_relation_row_bannai_ito_odd_sign():
    rng = random.Random("bi-odd")
    spec = sample_spec(LeonardType.BANNAI_ITO, 5, QQ, rng, mode="z:s_star=-2r1")
    u, v, _ = relation_coefficients(spec)
    r1 = spec.params["r1"]
    assert u == r1 and v == -(r1 + spec.d + 1)
    arr = build_parameter_array(spec)
    apm = compute_apm(intersection_a_closed(arr), arr.theta_star)
    assert relation_check(apm, u, v)


def test_relation_none_when_space_trivial(dual_hahn_spec):
    assert relation_coefficients(dual_hahn_spec) is None


def test_self_dual_predicate_rows(kraw_dim1):
    assert self_dual_predicate(kraw_dim1) is True
    asym = make_krawtchouk("2", s="1", s_star="3")
    assert self_dual_predicate(asym) is False
    shifted = make_krawtchouk("2", theta0="1")
    assert self_dual_predicate(shifted) is False
    rng = random.Random("sd")
    qh = sample_spec(LeonardType.Q_HAHN, 3, QQ, rng)
    assert self_dual_predicate(qh) is False


def test_self_dual_predicate_implies_array_check():
    rng = random.Random("sd-arr")
    for name in (LeonardType.Q_RACAH, LeonardType.AFFINE_Q_KRAWTCHOUK,
                 LeonardType.RACAH, LeonardType.KRAWTCHOUK,
                 LeonardType.BANNAI_ITO):
        spec = sample_spec(name, 4 if name is not LeonardType.BANNAI_ITO else 4,
                           QQ, rng, mode="self-dual")
        assert self_dual_predicate(spec)
        arr = build_parameter_array(spec)
        assert self_dual_array_check(arr)
    gf4 = ExtensionField(2, 2)
    spec = sample_spec(LeonardType.ORPHAN, 3, gf4, rng, mode="self-dual")
    assert self_dual_predicate(spec)
    assert self_dual_array_check(build_parameter_array(spec))


def test_self_dual_array_check_negative(dual_hahn_spec):
    arr = build_parameter_array(dual_hahn_spec)
    assert self_dual_array_check(arr) is False


def test_spin_predicate_rows(kraw_dim1):
    assert spin_predicate(kraw_dim1) is True
    rng = random.Random("spin")
    sd_qracah = sample_spec(LeonardType.Q_RACAH, 3, QQ, rng, mode="self-dual")
    p = sd_qracah.params
    if p["s"] not in (p["r1"] * p["r1"], p["r2"] * p["r2"]):
        assert spin_predicate(sd_qracah) is False
    spin_qracah = sample_spec(LeonardType.Q_RACAH, 3, QQ, rng,
                              mode="self-dual-spin")
    assert spin_predicate(spin_qracah) is True
    gf4 = ExtensionField(2, 2)
    orphan_sd = sample_spec(LeonardType.ORPHAN, 3, gf4, rng, mode="self-dual")
    assert spin_predicate(orphan_sd) is False


# -- the assembled instance pipeline ------------------------------------------


def test_analyze_instance_worked(kraw_dim1):
    chk = analyze_instance(kraw_dim1, deep=True)
    assert chk.ok, chk.failures
    assert chk.zreport.rank_m == 3
    assert chk.zreport.dim_z == 1
    assert chk.self_dual is True
    assert chk.spin is True
    assert chk.spin_routes == (True, True, True)


def test_analyze_instance_dim2(kraw_dim2):
    chk = analyze_instance(kraw_dim2, deep=True)
    assert chk.ok, chk.failures
    assert chk.zreport.dim_z == 2
    assert chk.a == ql(["3/2"] * 4)
    assert chk.flags["dim2_constant_a"]
    assert chk.flags["dim2_pair_spans"]


def test_analyze_instance_zero_space(dual_hahn_spec):
    chk = analyze_instance(dual_hahn_spec, deep=True)
    assert chk.ok, chk.failures
    assert chk.zreport.dim_z == 0
    assert chk.zreport.matrix_basis == []
    assert chk.relation_row is None


def test_analyze_instance_exemplars_deep(exemplar_specs):
    for spec in exemplar_specs.values():
        chk = analyze_instance(spec, deep=True)
        assert chk.ok, (spec.name, chk.failures)


@pytest.mark.parametrize("deep", [False, True])
def test_split_analysis_call_counts(monkeypatch, exemplar_specs, deep):
    """Either mode calls no product formula, reads each tridiagonal pattern
    through one band certificate on a closed form (E* A E* in both modes,
    E A* E in deep mode), certifies the two eigenvector families in deep
    mode only, and makes one dense product per verdict, the T M of
    L_equals_TM.

    The product formula is counted under both names it has: analysis keeps
    primitive_idempotents bound although it does not call it.
    """
    counts = {"primitive_idempotents": 0, "band": 0, "certify": 0, "mat_mul": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    product_formula = counted("primitive_idempotents", realization.primitive_idempotents)
    monkeypatch.setattr(analysis, "primitive_idempotents", product_formula)
    monkeypatch.setattr(realization, "primitive_idempotents", product_formula)
    monkeypatch.setattr(realization._TauStar, "band", counted("band", realization._TauStar.band))
    monkeypatch.setattr(realization._TauStar, "certify",
                        counted("certify", realization._TauStar.certify))
    monkeypatch.setattr(linalg, "mat_mul", counted("mat_mul", linalg.mat_mul))
    for spec in exemplar_specs.values():
        chk = analyze_instance(spec, deep=deep)
        assert chk.ok, (spec.name, chk.failures)
    assert counts == {"primitive_idempotents": 0,
                      "band": (2 if deep else 1) * len(exemplar_specs),
                      "certify": (2 if deep else 0) * len(exemplar_specs),
                      "mat_mul": len(exemplar_specs)}


@pytest.mark.parametrize("deep, builds", [(False, 1), (True, 2)])
def test_each_closed_form_is_built_once(monkeypatch, exemplar_specs, deep, builds):
    """A verdict builds the closed form U of E* once, on the array's
    theta* and phi1 (Realization.u_star), and deep mode builds U_A of E
    besides, first, on theta and A's unit subdiagonal: standard_basis_rep
    and verify_axioms read the same U."""
    built = []
    of = realization._TauStar.of

    def counted(eigs, phi, ctx):
        built.append((list(eigs), list(phi)))
        return of(eigs, phi, ctx)

    monkeypatch.setattr(realization._TauStar, "of", staticmethod(counted))
    for spec in exemplar_specs.values():
        chk = analyze_instance(spec, deep=deep)
        assert chk.ok, (spec.name, chk.failures)
        arr = chk.arr
        forms = [(arr.theta, [arr.field.one] * arr.d), (arr.theta_star, arr.phi1)]
        assert built == forms[2 - builds:], spec.name
        built.clear()


def recording_certificates(monkeypatch):
    """Record (family, closed form) for each eigen-certificate run, family
    "E*" for A* and "E" for A^T, after it passes."""
    seen = []
    certify = realization._TauStar.certify

    def recording(u, diag, sup, name):
        certify(u, diag, sup, name)
        seen.append((name.split()[0], u))

    monkeypatch.setattr(realization._TauStar, "certify", recording)
    return seen


def family_projections(real, family):
    """The projections of a family by the product formula, as the matrices
    whose columns i the closed form certifies: E*_i of A* for E*, and E_i^T
    of A for E, whose column i is the left factor w_i of E_i = v_i w_i^T."""
    arr, (a, a_star) = real.array, dense_split(real)
    if family == "E*":
        return realization.primitive_idempotents(a_star, arr.theta_star, arr.field)
    e = realization.primitive_idempotents(a, arr.theta, arr.field)
    return [linalg.transpose(e_i) for e_i in e]


@pytest.mark.parametrize("deep, calls", [(False, 0), (True, 2)])
def test_product_formula_only_in_deep_mode(monkeypatch, kraw_dim1, deep, calls):
    """Only deep mode proves the two families that the product formula
    defines, E of A and E* of A*, and what it certifies is what the
    product formula gives: the eigenvector v*_i of U, scaled to
    v*_i[i] = 1, is column i of E*_i, as the left factor w*_i has
    w*_i[i] = 1, and the eigenvector of A^T from U_A, scaled the same way,
    is row i of E_i, the left factor w_i, as v_i[i] = 1."""
    seen = recording_certificates(monkeypatch)
    chk = analyze_instance(kraw_dim1, deep=deep)
    assert chk.ok, chk.failures
    assert [family for family, _ in seen] == ["E", "E*"][:calls]
    real = realization.realize_split(chk.arr)
    for family, u in seen:
        e = family_projections(real, family)
        assert eigenvectors(u) == [[row[i] for row in e_i] for i, e_i in enumerate(e)]


def perturbing(monkeypatch, arr, family, j, r):
    """Patch _TauStar.of so that each closed form of family ("E*": on
    theta* and phi1, "E": on theta and A's unit subdiagonal) has U[r][j]
    moved by one."""
    original = realization._TauStar.of
    forms = {"E*": (arr.theta_star, arr.phi1), "E": (arr.theta, [arr.field.one] * arr.d)}
    assert forms["E*"] != forms["E"]

    def perturbed(eigs, phi, ctx):
        u = original(eigs, phi, ctx)
        if (list(eigs), list(phi)) == forms[family]:
            u.cols[j][r] = u.cols[j][r] + u.cols[0][0]
        return u

    monkeypatch.setattr(realization._TauStar, "of", staticmethod(perturbed))


@pytest.mark.parametrize("family", ["E*", "E"])
def test_deep_mode_rejects_diverging_projections(monkeypatch, kraw_dim1, family):
    # Deep mode certifies E (of A^T) first, then E* (of A*).  Adding 1 to
    # U[0][3] breaks row 0 of the family's M v_3 by theta_0 - theta_3 (of
    # that family), and no earlier residual: columns 0..2 are as they were.
    arr = build_parameter_array(kraw_dim1)
    perturbing(monkeypatch, arr, family, 3, 0)
    with pytest.raises(IdempotentCheckFailed) as info:
        analyze_instance(kraw_dim1, arr, deep=True)
    label = {"E*": "E* of A*", "E": "E of A^T"}[family]
    assert str(info.value) == f"rank-one {label}: M v_3 != theta_3 v_3 in row 0"


def test_fast_standard_basis_and_trace_form_no_dense_product(monkeypatch, exemplar_specs):
    # Both stages read scalars w*_i A v*_j off the rank-one factors; count the
    # dense products and solves made while either stage is running.
    inside, entered = [], []
    counts = {"mat_mul": 0, "solve_matrix": 0}

    def stage(fn):
        def wrapped(*args):
            entered.append(fn.__name__)
            inside.append(fn.__name__)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapped

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += bool(inside)
            return fn(*args)
        return wrapped

    for name in ("standard_basis_rep", "intersection_a_trace"):
        monkeypatch.setattr(analysis, name, stage(getattr(analysis, name)))
    for name in counts:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    for spec in exemplar_specs.values():
        chk = analyze_instance(spec)
        assert chk.ok, (spec.name, chk.failures)
    assert len(entered) == 2 * len(exemplar_specs)
    assert counts == {"mat_mul": 0, "solve_matrix": 0}


def fast_and_deep_samples():
    """One sample per campaign cell, and one d = 16 sample per family over Q."""
    yield from campaign_cell_samples()
    for name in ALL_TYPES:
        if name is not LeonardType.ORPHAN:
            yield sample_spec(name, 16, QQ, random.Random(f"fast-deep|{name.value}"))


def test_fast_and_deep_analysis_agree(monkeypatch):
    # Both modes read E* A E* off the same closed form U of the array's E*,
    # on every field; deep mode reads E A* E off U_A before it.  Neither
    # forms a V or V*.
    seen, standard = [], []
    band, rep = realization._TauStar.band, analysis.standard_basis_rep

    def recording_band(u, diag, sub, off_band):
        seen.append([col[:] for col in u.cols])
        return band(u, diag, sub, off_band)

    def recording_rep(real):
        nums = rep(real)
        standard.append(nums)
        return nums

    monkeypatch.setattr(realization._TauStar, "band", recording_band)
    monkeypatch.setattr(analysis, "standard_basis_rep", recording_rep)
    checked = 0
    for spec in fast_and_deep_samples():
        fast = analyze_instance(spec)
        (u_fast,) = seen
        seen.clear()
        deep = analyze_instance(spec, deep=True)
        _, u_deep = seen  # U_A, then U
        seen.clear()
        assert u_fast == u_deep, spec
        assert standard[-2:] == [fast.nums, deep.nums], spec
        assert fast.nums == deep.nums, spec
        assert fast.flags == deep.flags, spec
        assert fast.ok, (spec, fast.failures)
        checked += 1
    assert checked == 130 + 12


def test_x_space_programming_error_propagates(monkeypatch, kraw_dim1):
    calls = []

    def broken(nums, theta_star, ctx):
        calls.append(nums)
        raise TypeError("not a dependence")

    monkeypatch.setattr(zerodiag, "x_space_basis", broken)
    with pytest.raises(TypeError, match="not a dependence"):
        analyze_instance(kraw_dim1)
    assert len(calls) == 1


def test_x_space_dependence_clears_its_flag(monkeypatch, kraw_dim1):
    # The certificate gets the intersection numbers and the array's theta*,
    # and the commutator flag, which reads theta* and a, still holds.
    calls = []

    def dependent(nums, theta_star, ctx):
        calls.append((nums, theta_star, ctx))
        raise DependenceDetected("generators span only 4 dimensions")

    monkeypatch.setattr(zerodiag, "x_space_basis", dependent)
    chk = analyze_instance(kraw_dim1)
    assert calls == [(chk.nums, chk.arr.theta_star, chk.arr.field)]
    assert calls[0][1] is chk.arr.theta_star is chk.zreport.theta_star
    assert chk.flags["x_generators_independent"] is False
    assert chk.flags["commutator_zero_diagonal"] is True
    assert chk.failures == ["x_generators_independent"]


def test_cor_route_equivalence_on_self_dual_samples():
    rng = random.Random("routes")
    for name in (LeonardType.Q_RACAH, LeonardType.RACAH, LeonardType.KRAWTCHOUK,
                 LeonardType.BANNAI_ITO, LeonardType.AFFINE_Q_KRAWTCHOUK):
        for mode in ("self-dual", "self-dual-spin"):
            if mode == "self-dual-spin" and name in (
                    LeonardType.KRAWTCHOUK, LeonardType.AFFINE_Q_KRAWTCHOUK):
                continue
            spec = sample_spec(name, 4, QQ, rng, mode=mode)
            chk = analyze_instance(spec)
            assert chk.ok, (name, mode, chk.failures)
            r1, r2, r3 = chk.spin_routes
            assert r1 == r2 == r3
            if mode == "self-dual-spin":
                assert chk.spin is True


# -- operation counts ---------------------------------------------------------


def test_fast_analysis_multiplication_count(monkeypatch):
    """Field multiplications and divisions of a d = 16 fast analysis over
    GF(1000003).

    A deterministic stand-in for timing.  The independence certificate of
    the five generators is one det of a 5 x 5 minor of their entries, so it
    costs ten products and 23 multiplications in det at every n, and forms
    neither A A* nor A* A (ranking the 5 x 2n block of their first two rows
    cost 20 there and forming the two products 98, ranking the 5 x n^2
    flattening 226 at n = 17, and 2275 with dense row updates).  The whole
    fast analysis makes 979: the band of W* A V* is certified on the
    residues of the closed form U, Python ints that make no field
    multiplication, b and c come from that band by the row sums in O(n),
    one product and one quotient for each c_i, and the a-trace reads
    three entries of A per i, with no other entry of W* formed (1028 with
    the scale D, its recurrence and the quotients b_i = t_(i,i+1)
    D_(i+1) / D_i and c_i = t_(i+1,i) D_i / D_(i+1), 1420 with the band
    read off a V* of field elements at two products per certified entry,
    1471 with the block rank and the formed products, 1826 when D = W* u
    read all of W*, 2652 with the residual certificate that read W*, 6018
    with dense kernels).  It makes 141 divisions (202 at a93d2ae): the
    split quotients phi_(i+1) / (theta*_i - theta*_(i+1)) are formed once
    for the closed a_i (intersection_a_closed divided 2d times), and each
    q-power clause inverts q once and takes its powers (q^-i cost one
    inverse per index).
    """
    ctx = parse_field("GF(1000003)")
    spec = sample_spec(LeonardType.Q_RACAH, 16, ctx, random.Random("mul-count"))
    count, divisions = [0], [0]
    mul, div = PrimeFieldElement.__mul__, PrimeFieldElement.__truediv__
    det, certify = linalg.det, zerodiag.x_space_basis
    det_counts, certificate_counts = [], []

    def counted_mul(x, y):
        count[0] += 1
        return mul(x, y)

    def counted_div(x, y):
        divisions[0] += 1
        return div(x, y)

    def counted(fn, counts):
        def wrapped(*args):
            before = count[0]
            out = fn(*args)
            counts.append((len(args[0]) if fn is det else None, count[0] - before))
            return out
        return wrapped

    monkeypatch.setattr(PrimeFieldElement, "__mul__", counted_mul)
    monkeypatch.setattr(PrimeFieldElement, "__truediv__", counted_div)
    monkeypatch.setattr(linalg, "det", counted(det, det_counts))
    monkeypatch.setattr(zerodiag, "x_space_basis", counted(certify, certificate_counts))
    chk = analyze_instance(spec)
    assert chk.ok, chk.failures
    minor_counts = [c for size, c in det_counts if size == 5]
    assert len(minor_counts) == 1 and minor_counts[0] <= 23
    assert len(certificate_counts) == 1 and certificate_counts[0][1] <= 10 + 23
    assert count[0] <= 979
    assert divisions[0] <= 141


@pytest.mark.parametrize("deep", [False, True])
def test_fast_verdict_forms_no_left_factor_and_no_transpose(monkeypatch, deep):
    """A verdict reads of W* only w*_i[i + 1], the first step of the
    forward substitution (intersection_a_trace, in either mode), and
    transposes no n x n matrix: no full left factor is formed, and the one
    matrix product is the T M of L_equals_TM.  Both modes read bands off
    closed forms, and deep mode certifies those closed forms; the package
    has no substitution route to form an eigenvector by."""
    counts = {"mat_mul": 0}
    transposed = []

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    def transposing(a):
        transposed.append(a)
        return transpose(a)

    transpose = linalg.transpose
    monkeypatch.setattr(linalg, "mat_mul", counted("mat_mul", linalg.mat_mul))
    monkeypatch.setattr(linalg, "transpose", transposing)
    for name in (LeonardType.Q_RACAH, LeonardType.KRAWTCHOUK):
        spec = sample_spec(name, 16, QQ, random.Random(f"no-left|{name.value}"))
        counts.update(dict.fromkeys(counts, 0))
        transposed.clear()
        chk = analyze_instance(spec, deep=deep)
        assert chk.ok, (name, chk.failures)
        assert counts == {"mat_mul": 1}, name
        n = spec.d + 1
        assert not [m for m in transposed if len(m) == n and len(m[0]) == n], name


@pytest.mark.parametrize("deep", [False, True])
def test_verdict_checks_each_spectrum_once(monkeypatch, kraw_dim1, deep):
    """No verdict runs the pairwise check of an eigenvalue sequence: both
    modes read distinct theta* off the diagonal of its closed form in
    standard_basis_rep, which runs before the a-routes divide, and a deep
    verdict reads distinct theta off that of U_A too.  The pairwise check
    only names a pair that fails.  The pair is its four diagonals, so no
    shape is checked."""
    distinct = []

    def recording(log, fn):
        def wrapped(*args, **kwargs):
            log.append(args[0])
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(realization, "_check_distinct",
                        recording(distinct, realization._check_distinct))
    chk = analyze_instance(kraw_dim1, deep=deep)
    assert chk.ok, chk.failures
    assert distinct == []


def test_deep_verdict_certifies_every_right_factor(monkeypatch):
    """Deep mode certifies both closed forms whole: each column of U and
    U_A has its whole support (U[r][j] != 0 for r <= j), and the
    eigenvectors they give are those of the reference families: V* of A*,
    and of A^T the left factors w_i of A's projections E_i = v_i w_i^T."""
    seen = recording_certificates(monkeypatch)
    spec = sample_spec(LeonardType.Q_RACAH, 16, QQ, random.Random("deep-full-w"))
    chk = analyze_instance(spec, deep=True)
    assert chk.ok, chk.failures
    arr = chk.arr
    real = realization.realize_split(arr)
    (_, u_a), (_, u) = seen
    assert eigenvectors(u) == bidiagonal_idempotents(real.theta_star, real.sup, arr.field).v
    assert eigenvectors(u_a) == bidiagonal_idempotents(
        real.theta, real.sub, arr.field).transpose().w
    assert all(all(col) for col in u.cols + u_a.cols)


def deep_right_factor_samples(label):
    """One sampled d = 6 spec per family over the field label."""
    ctx = parse_field(label)
    rng = random.Random(f"deep-right-factors|{label}")
    return [sample_spec(name, 6, ctx, rng) for name in families_over(ctx, 6)]


@pytest.mark.parametrize("label", ["Q", "GF(1000003)", "GF(3^4)"])
def test_deep_verdict_refuses_every_perturbed_right_factor(monkeypatch, label):
    """Adding one to any entry U[r][j] (r <= j) of the closed form of E*
    or of E makes the deep verdict raise an error that names the family
    and the eigenvector of column j: "rank-one E* of A*: M v_j ..." or
    "rank-one E of A^T: M v_j ...".  The one survivor of each family is
    the entry whose change scales an eigenvector, the single entry of
    column 0 (v*_0 and w_0): the scaled family is still an eigenbasis, and
    the verdict passes."""
    names = {"E*": "rank-one E* of A*: M v_", "E": "rank-one E of A^T: M v_"}
    samples = deep_right_factor_samples(label)
    survivors = []
    for spec in samples:
        arr = build_parameter_array(spec)
        assert analyze_instance(spec, arr, deep=True).ok
        d = spec.d
        for family in ("E*", "E"):
            for i in range(d + 1):
                for r in range(i + 1):
                    with monkeypatch.context() as m:
                        perturbing(m, arr, family, i, r)
                        try:
                            chk = analyze_instance(spec, arr, deep=True)
                        except LeonardError as err:
                            message = str(err)
                        else:
                            assert chk.ok, (family, i, r, chk.failures)
                            survivors.append((family, i, r))
                            continue
                    assert message.startswith(names[family]), (family, i, r, message)
                    assert f"v_{i} " in message, (family, i, r, message)
    assert survivors == [("E*", 0, 0), ("E", 0, 0)] * len(samples)


@pytest.mark.parametrize("label", ["Q", "GF(1000003)", "GF(3^4)"])
def test_deep_right_factors_span_the_images_of_the_product_formula(monkeypatch, label):
    """Each eigenvector deep mode certifies is the image of its projection
    by the product formula: E_i v_i = v_i and E_j v_i = 0 for j != i, for
    V* of A* (from U), and E_i^T w_i = w_i and E_j^T w_i = 0 for the left
    factors w_i of A's projections (from U_A)."""
    seen = recording_certificates(monkeypatch)
    for spec in deep_right_factor_samples(label):
        seen.clear()
        chk = analyze_instance(spec, deep=True)
        assert chk.ok, chk.failures
        assert len(seen) == 2
        ctx = chk.arr.field
        real = realization.realize_split(chk.arr)
        for family, u in seen:
            vs = eigenvectors(u)
            for j, e_j in enumerate(family_projections(real, family)):
                for i, v in enumerate(vs):
                    image = [sum((x * y for x, y in zip(row, v)), ctx.zero) for row in e_j]
                    assert image == (v if i == j else [ctx.zero] * len(v)), (spec.name, i, j)
