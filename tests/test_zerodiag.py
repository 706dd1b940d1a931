import sys
from typing import NamedTuple

import pytest

from conftest import QQ, campaign_cell_samples, cross_route_samples, dense_split
from leonardz import campaign, linalg, zerodiag
from leonardz.analysis import analyze_instance, relation_coefficients
from leonardz.errors import DependenceDetected
from leonardz.families import FAMILIES
from leonardz.parray import ALL_TYPES, LeonardType, build_parameter_array
from leonardz.realization import (
    IntersectionNumbers,
    intersection_a_closed,
    primitive_idempotents,
    realize_split,
    standard_basis_rep,
)


def ql(values):
    return [QQ(x) for x in values]


def diagonal(values, ctx):
    """diag(values) as a dense matrix."""
    return [[t if i == j else ctx.zero for j in range(len(values))]
            for i, t in enumerate(values)]


class Std(NamedTuple):
    """A sample's intersection numbers, with the dense A (nums.matrix()) and
    A* = diag(theta*) of the standard basis formed here for the oracles."""

    arr: object
    nums: object
    A: list
    A_star: list

    @property
    def dim(self):
        return len(self.A)


def standard_rep(spec):
    """(array, Std, a)."""
    arr = build_parameter_array(spec)
    nums = standard_basis_rep(realize_split(arr))
    return arr, Std(arr, nums, nums.matrix(), diagonal(arr.theta_star, arr.field)), nums.a


def matrix_of(coeffs, std):
    """combination_matrix on std's intersection numbers and theta*."""
    return zerodiag.combination_matrix(coeffs, std.nums, std.arr.theta_star)


def kernel_pairs(m, std):
    """z_basis_kernel's coefficient vectors, each with its matrix."""
    arr = std.arr
    return [(c, matrix_of(c, std))
            for c in zerodiag.z_basis_kernel(m, std.nums.a, arr.theta_star, arr.field)]


def closed_dim1(std, a, u, v):
    """The closed-form generator u*P1 - v*P2 as a matrix."""
    return matrix_of(zerodiag.closed_dim1_coefficients(std.arr, a, u, v), std)


def closed_dim2(std, a0):
    """The closed-form dim-2 pair A - a0*I and A A* - a0*A* as matrices."""
    return [matrix_of(c, std) for c in zerodiag.closed_dim2_coefficients(a0, std.arr.field)]


@pytest.fixture(scope="module")
def std_dim1(kraw_dim1):
    return standard_rep(kraw_dim1)


@pytest.fixture(scope="module")
def std_dim2(kraw_dim2):
    return standard_rep(kraw_dim2)


# -- raw sequence oracles (hand-computed from a = (3,2,1,0), ts = (0,1,2,3)) --


def test_apm_hand_values():
    apm = zerodiag.compute_apm(ql([3, 2, 1, 0]), ql([0, 1, 2, 3]))
    assert apm.a_minus == ql([0, 2, 2, 0])
    assert apm.a_plus == ql([0, 2, 2, 0])


def test_apm_endpoints_always_zero(exemplar_specs):
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        apm = zerodiag.compute_apm(intersection_a_closed(arr), arr.theta_star)
        zero = arr.field.zero
        assert apm.a_minus[0] == apm.a_minus[-1] == zero
        assert apm.a_plus[0] == apm.a_plus[-1] == zero


def test_apm_constant_a_all_zero():
    apm = zerodiag.compute_apm(ql(["3/2"] * 4), ql([0, 1, 2, 3]))
    assert all(not x for x in apm.a_minus)
    assert all(not x for x in apm.a_plus)


def test_matrix_m_hand_rows():
    m = zerodiag.matrix_m(ql([3, 2, 1, 0]), ql([0, 1, 2, 3]), QQ)
    assert m == [ql([1, 1, 1, 1]), ql([0, 1, 2, 3]), ql([3, 2, 1, 0]),
                 ql([0, 2, 2, 0])]


def test_matrix_t_and_product_hand_values():
    a, ts = ql([3, 2, 1, 0]), ql([0, 1, 2, 3])
    t = zerodiag.matrix_t(a[0], a[3], ts[0], ts[3], QQ)
    assert t == [ql([1, 0, 0, 0]), ql([0, 1, 0, 0]), ql([9, -3, -3, 1]),
                 ql([0, 0, 0, 1])]
    m = zerodiag.matrix_m(a, ts, QQ)
    tm = linalg.mat_mul(t, m)
    assert tm[2] == ql([0, 2, 2, 0])
    apm = zerodiag.compute_apm(a, ts)
    assert tm == zerodiag.matrix_l(apm, ts, QQ)


def test_det_t_equals_dual_eigenvalue_gap():
    t = zerodiag.matrix_t(QQ(3), QQ(0), QQ(0), QQ(3), QQ)
    assert linalg.det(t) == QQ(-3)


def test_rank_hand_values():
    m = zerodiag.matrix_m(ql([3, 2, 1, 0]), ql([0, 1, 2, 3]), QQ)
    assert linalg.rank(m) == 3
    const = zerodiag.matrix_m(ql([5, 5, 5, 5]), ql([0, 1, 2, 3]), QQ)
    assert linalg.rank(const) == 2
    assert linalg.rank(linalg.identity(4, QQ)) == 4


def test_z_dimension_arithmetic(std_dim1, std_dim2, dual_hahn_spec):
    for rep, rank_m, dim_z in ((std_dim1, 3, 1), (std_dim2, 2, 2),
                               (standard_rep(dual_hahn_spec), 4, 0)):
        arr, std, a = rep
        report = zerodiag.build_zspace_report(arr, a, std.nums)
        assert (linalg.rank(report.M), report.dim_z) == (rank_m, dim_z)


# -- realization-level checks ------------------------------------------------


def test_kernel_basis_worked(std_dim1):
    arr, std, a = std_dim1
    m = zerodiag.matrix_m(a, arr.theta_star, QQ)
    kernel = kernel_pairs(m, std)
    assert len(kernel) == 1
    got, x = kernel[0]
    target = ql([-6, 3, 1, 0])
    scale = next(g / t for g, t in zip(got, target) if t)
    assert all(g == scale * t for g, t in zip(got, target))
    assert zerodiag.has_zero_diagonal(x)


def test_kernel_empty_for_zero_space(dual_hahn_spec):
    arr, std, a = standard_rep(dual_hahn_spec)
    m = zerodiag.matrix_m(a, arr.theta_star, QQ)
    assert linalg.rank(m) == 4
    assert zerodiag.z_basis_kernel(m, a, arr.theta_star, QQ) == []


def test_dim2_kernel_structure(std_dim2):
    arr, std, a = std_dim2
    m = zerodiag.matrix_m(a, arr.theta_star, QQ)
    kernel = kernel_pairs(m, std)
    assert len(kernel) == 2
    for (f0, f1, f2, f3), x in kernel:
        assert f0 + f2 * a[0] == QQ(0)
        assert f1 + f3 * a[0] == QQ(0)
        assert zerodiag.has_zero_diagonal(x)


def test_closed_dim1_generator_spans_kernel(std_dim1, kraw_dim1):
    arr, std, a = std_dim1
    u, v, _ = relation_coefficients(kraw_dim1)
    gen = closed_dim1(std, a, u, v)
    assert not linalg.is_zero_matrix(gen)
    assert zerodiag.has_zero_diagonal(gen)
    m = zerodiag.matrix_m(a, arr.theta_star, QQ)
    kernel = kernel_pairs(m, std)
    assert linalg.same_row_span([linalg.flatten(x) for _, x in kernel],
                                [linalg.flatten(gen)])


def test_closed_dim1_expansion_identity(std_dim1):
    # (A - a0)(A* - ts_d) - (A - ad)(A* - ts_0) = -3 (A + 3 A* - 6 I)
    arr, std, a = std_dim1
    gen = closed_dim1(std, a, QQ(1), QQ(1))
    direct = [[x + QQ(3) * y for x, y in zip(ra, rb)] for ra, rb in zip(std.A, std.A_star)]
    for i in range(4):
        direct[i][i] = direct[i][i] - QQ(6)
    assert gen == linalg.mat_scale(QQ(-3), direct)


def test_dim2_closed_pair(std_dim2):
    arr, std, a = std_dim2
    pair = closed_dim2(std, a[0])
    for x in pair:
        assert zerodiag.has_zero_diagonal(x)
    m = zerodiag.matrix_m(a, arr.theta_star, QQ)
    kernel = kernel_pairs(m, std)
    assert linalg.same_row_span([linalg.flatten(x) for _, x in kernel],
                                [linalg.flatten(x) for x in pair])


def commutator(std):
    return linalg.mat_sub(linalg.mat_mul(std.A, std.A_star),
                          linalg.mat_mul(std.A_star, std.A))


def test_commutator_has_zero_diagonal(std_dim1):
    _, std, _ = std_dim1
    comm = commutator(std)
    assert zerodiag.has_zero_diagonal(comm)
    assert not linalg.is_zero_matrix(comm)


def test_identity_does_not_have_zero_diagonal(std_dim1):
    _, std, _ = std_dim1
    assert not zerodiag.has_zero_diagonal(linalg.identity(std.dim, QQ))


def test_commutator_split_basis_route(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    a, a_star = dense_split(realize_split(arr))
    comm = linalg.mat_sub(linalg.mat_mul(a, a_star), linalg.mat_mul(a_star, a))
    for e in primitive_idempotents(a_star, arr.theta_star, QQ):
        assert linalg.is_zero_matrix(linalg.mat_mul(linalg.mat_mul(e, comm), e))


def test_diagonal_test_matches_projections_on_exemplars(exemplar_specs, kraw_dim1,
                                                        kraw_dim2):
    # The product-formula E* of the standard A* is the reference for X_ii = 0;
    # the two worked specs add kernel elements of a dim-1 and a dim-2 space.
    kernel_elements = 0
    for spec in list(exemplar_specs.values()) + [kraw_dim1, kraw_dim2]:
        arr, std, a = standard_rep(spec)
        ctx = arr.field
        estar = primitive_idempotents(std.A_star, arr.theta_star, ctx)
        kernel = kernel_pairs(zerodiag.matrix_m(a, arr.theta_star, ctx), std)
        kernel_elements += len(kernel)
        for x, expected in [(x, True) for _, x in kernel] + [
                (commutator(std), True), (linalg.identity(std.dim, ctx), False)]:
            by_projections = all(
                linalg.is_zero_matrix(linalg.mat_mul(linalg.mat_mul(e, x), e))
                for e in estar)
            assert zerodiag.has_zero_diagonal(x) == by_projections == expected, spec.name
    assert kernel_elements >= 3


def test_x_space_basis_independent(std_dim1):
    arr, std, _ = std_dim1
    assert zerodiag.x_space_basis(std.nums, arr.theta_star, QQ) is None
    mats = zerodiag.x_generators(std.nums, arr.theta_star, QQ)
    assert len(mats) == 5
    assert mats[1:3] == [std.A_star, std.A]
    assert linalg.rank([linalg.flatten(m) for m in mats]) == 5


def recorded_ranks(monkeypatch):
    """Route linalg.rank through a recorder of (row length, rank) pairs."""
    ranks, original = [], linalg.rank

    def recording(rows):
        out = original(rows)
        ranks.append((len(rows[0]), out))
        return out

    monkeypatch.setattr(linalg, "rank", recording)
    return ranks


def recorded_dets(monkeypatch):
    """Route linalg.det through a recorder of (size, determinant) pairs."""
    dets, original = [], linalg.det

    def recording(rows):
        out = original(rows)
        dets.append((len(rows), out))
        return out

    monkeypatch.setattr(linalg, "det", recording)
    return dets


# The entries of each generator that the certificate's 5 x 5 minor reads.
MINOR_ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0), (1, 2))


def test_x_space_certificate_rank_is_the_full_rank(monkeypatch):
    """On one sample per campaign cell the certificate is one det of the
    5 x 5 minor of the formed generators, equal to its closed form
    (theta*_0 - theta*_1)^2 (theta*_0 - theta*_2) b_0 c_0 b_1 and nonzero,
    with no rank taken; the full flattening has rank 5."""
    dets, ranks = recorded_dets(monkeypatch), recorded_ranks(monkeypatch)
    checked = 0
    for spec in campaign_cell_samples():
        arr, std, _ = standard_rep(spec)
        ts, a, ctx = arr.theta_star, std.A, arr.field
        mats = zerodiag.x_generators(std.nums, ts, ctx)
        closed = (ts[0] - ts[1]) * (ts[0] - ts[1]) * (ts[0] - ts[2]) * a[0][1] * a[1][0] * a[1][2]
        dets.clear()
        ranks.clear()
        assert zerodiag.x_space_basis(std.nums, ts, ctx) is None
        assert dets == [(5, closed)] and ranks == [] and closed, spec
        assert linalg.det([[m[i][j] for i, j in MINOR_ENTRIES] for m in mats]) == closed, spec
        assert linalg.rank([linalg.flatten(m) for m in mats]) == 5, spec
        checked += 1
    assert checked == 130


def test_x_space_fallback_accepts_independent_generators(monkeypatch):
    # theta* = (0, 1, 2, 3) and A = E10 + E12 + E21 + E23 + E32: b_0 = 0, so
    # the minor is 0.  On the entries (1,0), (1,2), (2,1), where I and A*
    # vanish, A, A A* and A* A read (1, 1, 1), (0, 2, 1) and (1, 1, 2), with
    # determinant 2, and I and A* are independent on the diagonal, so the
    # five generators are independent.
    hand = IntersectionNumbers(ql([0, 0, 0, 0]), ql([0, 1, 1]), ql([1, 1, 1]))
    ts = ql([0, 1, 2, 3])
    dets, ranks = recorded_dets(monkeypatch), recorded_ranks(monkeypatch)
    assert zerodiag.x_space_basis(hand, ts, QQ) is None
    assert zerodiag.x_generators(hand, ts, QQ)[1:3] == [diagonal(ts, QQ), hand.matrix()]
    assert dets == [(5, 0)]
    assert ranks == [(16, 5)]


def test_x_space_dependence_names_the_full_rank(monkeypatch, std_dim1):
    # With theta* = (2, 2, 2, 2), A* = 2I and the generators are I, 2I, A,
    # 2A, 2A, which span what I and A span; the minor's rows of I and A*
    # are proportional.
    _, std, _ = std_dim1
    dets, ranks = recorded_dets(monkeypatch), recorded_ranks(monkeypatch)
    with pytest.raises(DependenceDetected, match="^generators span only 2 dimensions$"):
        zerodiag.x_space_basis(std.nums, ql([2, 2, 2, 2]), QQ)
    assert dets == [(5, 0)]
    assert ranks == [(16, 2)]


# -- the one coefficient map against the products it replaces ----------------


def reference_combination(coeffs, std):
    """f0 I + f1 A* + f2 A + f3 A A*, with A A* formed by linalg.mat_mul."""
    f0, f1, f2, f3 = coeffs
    out = linalg.mat_scale(f0, linalg.identity(std.dim, std.arr.field))
    for f, m in ((f1, std.A_star), (f2, std.A), (f3, linalg.mat_mul(std.A, std.A_star))):
        out = [[x + f * y for x, y in zip(ro, rm)] for ro, rm in zip(out, m)]
    return out


def test_span_elements_match_the_products():
    """Kernel matrices, closed generators and x-space products against the
    matrix products they were once formed by, on one sample per campaign
    cell and d = 16 over Q, GF(1000003) and GF(3^4)."""
    seen = {"kernel": 0, "dim1": 0, "dim2": 0}
    for spec in cross_route_samples():
        arr, std, a = standard_rep(spec)
        ctx, ts, d = arr.field, arr.theta_star, arr.d
        a_astar = linalg.mat_mul(std.A, std.A_star)
        assert zerodiag.x_generators(std.nums, ts, ctx)[3:] == [
            a_astar, linalg.mat_mul(std.A_star, std.A)]
        kernel = kernel_pairs(zerodiag.matrix_m(a, ts, ctx), std)
        for coeffs, x in kernel:
            assert x == reference_combination(coeffs, std), spec
        seen["kernel"] += len(kernel)
        # P1 = (A - a0 I)(A* - ts_d I) and P2 = (A - ad I)(A* - ts_0 I) are
        # rows 2 and 3 of T, and independent.
        p1 = linalg.mat_mul(linalg.shift(std.A, a[0]), linalg.shift(std.A_star, ts[d]))
        p2 = linalg.mat_mul(linalg.shift(std.A, a[d]), linalg.shift(std.A_star, ts[0]))
        t = zerodiag.matrix_t(a[0], a[d], ts[0], ts[d], ctx)
        for row, p in ((t[2], p1), (t[3], p2)):
            assert matrix_of(row, std) == p, spec
        assert linalg.rank([linalg.flatten(p1), linalg.flatten(p2)]) == 2, spec
        relation = relation_coefficients(spec)
        if relation is not None:
            u, v, _ = relation
            assert closed_dim1(std, a, u, v) == linalg.mat_sub(
                linalg.mat_scale(u, p1), linalg.mat_scale(v, p2)), spec
            seen["dim1"] += 1
        if len(kernel) == 2:
            pair = [linalg.shift(std.A, a[0]),
                    linalg.mat_sub(a_astar, linalg.mat_scale(a[0], std.A_star))]
            assert closed_dim2(std, a[0]) == pair, spec
            seen["dim2"] += 1
    assert min(seen.values()) > 0, seen


def test_diagonal_and_band_match_the_formed_matrix(std_dim1):
    """combination_diagonal is the diagonal of combination_matrix, and
    band_nonzero tells whether an entry off it is nonzero, on the kernel
    rows, the closed forms, I, 0 and A (A* - theta*_1 I), whose column 1
    vanishes, on one sample per campaign cell, and on hand intersection
    numbers whose nonzero entries are all below the diagonal."""
    lower = [ql([int(i == j + 1) for j in range(4)]) for i in range(4)]
    hand = IntersectionNumbers(ql([0] * 4), ql([0] * 3), ql([1] * 3))
    x_is_a = ql([0, 0, 1, 0])
    assert zerodiag.combination_matrix(x_is_a, hand, ql(range(4))) == lower
    assert zerodiag.band_nonzero(x_is_a, ql(range(4)), hand)
    assert not any(zerodiag.combination_diagonal(x_is_a, ql(range(4)), hand.a))
    outcomes = set()
    for spec in campaign_cell_samples():
        arr, std, a = standard_rep(spec)
        ctx, ts = arr.field, arr.theta_star
        one, zero = ctx.one, ctx.zero
        u, v, _ = relation_coefficients(spec) or (one, one, None)
        coeffs = zerodiag.z_basis_kernel(zerodiag.matrix_m(a, ts, ctx), a, ts, ctx) + [
            zerodiag.closed_dim1_coefficients(arr, a, u, v),
            *zerodiag.closed_dim2_coefficients(a[0], ctx),
            [one, zero, zero, zero],
            [zero, zero, zero, zero],
            [zero, zero, -ts[1], one]]
        for c in coeffs:
            x = matrix_of(c, std)
            diag = zerodiag.combination_diagonal(c, ts, a)
            assert diag == [x[i][i] for i in range(std.dim)], spec
            off = any(x[i][j] for i in range(std.dim) for j in range(std.dim) if i != j)
            assert zerodiag.band_nonzero(c, ts, std.nums) == off, spec
            outcomes.add((any(diag), off))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def span_routes(kernel, coeffs, std):
    """The kernel's rows and the closed forms' rows, once as coefficient
    vectors (the route of analyze_instance) and once as n^2-flattened
    matrices (the oracle)."""
    return ([[c for c, _ in kernel], coeffs],
            [[linalg.flatten(x) for _, x in kernel],
             [linalg.flatten(matrix_of(c, std)) for c in coeffs]])


def test_coefficient_span_route_matches_the_flattened_route():
    """The span flags of analyze_instance compare 4-coefficient vectors.
    On seeded dim-1 and dim-2 samples of every family that has such rows
    they agree with the tests on the flattened matrices, and a closed
    generator perturbed by I fails both."""
    seen = {1: set(), 2: set()}
    for spec in campaign_cell_samples():
        arr, std, a = standard_rep(spec)
        kernel = kernel_pairs(zerodiag.matrix_m(a, arr.theta_star, arr.field), std)
        dim_z = len(kernel)
        if dim_z == 0:
            continue
        seen[dim_z].add(spec.name)
        u, v, _ = relation_coefficients(spec)
        gen = zerodiag.closed_dim1_coefficients(arr, a, u, v)
        bent = [gen[0] + arr.field.one, *gen[1:]]
        cases = [([gen], True), ([bent], False)]
        if dim_z == 2:
            pair = zerodiag.closed_dim2_coefficients(a[0], arr.field)
            cases += [(pair, True), ([bent, pair[1]], False)]
        for coeffs, holds in cases:
            for rows, closed in span_routes(kernel, coeffs, std):
                if len(closed) == 1:
                    assert linalg.in_row_span(rows, closed[0]) == holds, spec
                if len(closed) == dim_z:
                    assert linalg.same_row_span(rows, closed) == holds, spec
    dim1_families = {name for name in ALL_TYPES if FAMILIES[name].z_rows}
    dim2_families = {name for name in ALL_TYPES if FAMILIES[name].dim2}
    assert seen[1] | seen[2] == dim1_families and seen[2] == dim2_families, seen


def test_no_verdict_forms_a_standard_basis_matrix(monkeypatch):
    """A fast analysis, a deep analysis and a campaign verdict never form
    the dense A of the standard basis (IntersectionNumbers.matrix): every
    flag reads a, b, c and theta*, and the one linalg.mat_mul of a verdict
    is the T M of its L_equals_TM flag.  Reading the report's matrix_basis
    forms the kernel's matrices, one A each, as the analyze report does."""
    callers, formed = [], []
    mat_mul, matrix = linalg.mat_mul, IntersectionNumbers.matrix

    def recording(x, y):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return mat_mul(x, y)

    def counted(nums):
        formed.append(nums)
        return matrix(nums)

    monkeypatch.setattr(linalg, "mat_mul", recording)
    monkeypatch.setattr(IntersectionNumbers, "matrix", counted)
    verdicts = 0
    for spec in campaign_cell_samples():
        for deep in (False, True):
            chk = analyze_instance(spec, deep=deep)
            assert chk.ok, (spec, deep, chk.failures)
            assert formed == [], (spec, deep)
            verdicts += 1
        basis = chk.zreport.matrix_basis
        assert formed == [chk.nums] * chk.zreport.dim_z, spec
        assert all(map(zerodiag.has_zero_diagonal, basis)) and not any(
            map(linalg.is_zero_matrix, basis)), spec
        formed.clear()
    assert callers == ["leonardz.analysis"] * verdicts
    collected = []
    report = campaign.run_campaign(types=[LeonardType.KRAWTCHOUK], d_min=3, d_max=3,
                                   trials=1, collector=collected)
    assert report.ok and report.pass_count > 0
    assert {chk.zreport.dim_z for _, _, chk in collected} == {1, 2}
    assert formed == []


def test_products_commute_differently(std_dim1):
    _, std, _ = std_dim1
    aa = linalg.mat_mul(std.A, std.A_star)
    bb = linalg.mat_mul(std.A_star, std.A)
    assert aa != bb


def test_dependence_equivalences_routes(std_dim1, std_dim2, dual_hahn_spec):
    arr1, _, a1 = std_dim1
    apm = zerodiag.compute_apm(a1, arr1.theta_star)
    assert zerodiag.dependence_equivalences(apm) == (True, True, True)
    arr2, _, a2 = std_dim2
    apm2 = zerodiag.compute_apm(a2, arr2.theta_star)
    assert zerodiag.dependence_equivalences(apm2) == (True, True, True)
    arr0 = build_parameter_array(dual_hahn_spec)
    a0 = intersection_a_closed(arr0)
    apm0 = zerodiag.compute_apm(a0, arr0.theta_star)
    assert zerodiag.dependence_equivalences(apm0) == (False, False, False)


def _products_equal_all_pairs(apm, indices):
    """The product test over every ordered pair, as it was first written."""
    return all(apm.a_minus[i] * apm.a_plus[j] == apm.a_plus[i] * apm.a_minus[j]
               for i in indices for j in indices)


def test_dependence_pairs_match_the_all_pairs_loop():
    outcomes = set()
    for spec in campaign_cell_samples():
        arr = build_parameter_array(spec)
        apm = zerodiag.compute_apm(intersection_a_closed(arr), arr.theta_star)
        rank_le_1, full, interior = zerodiag.dependence_equivalences(apm)
        assert full == _products_equal_all_pairs(apm, range(arr.d + 1)), spec
        assert interior == _products_equal_all_pairs(apm, range(1, arr.d)), spec
        assert rank_le_1 == (linalg.rank([apm.a_minus, apm.a_plus]) <= 1)
        outcomes.add((full, interior))
    assert outcomes == {(True, True), (False, False)}


def test_rank_invariance_under_transforms(exemplar_specs):
    from leonardz.parray import affine_transform, reverse_dual, reverse_primal

    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        ctx = arr.field
        base = linalg.rank(
            zerodiag.matrix_m(intersection_a_closed(arr), arr.theta_star, ctx))
        for variant in (reverse_dual(arr), reverse_primal(arr),
                        affine_transform(arr, ctx(2) if ctx.characteristic != 2
                                         else ctx(1), ctx(1),
                                         ctx.one, ctx.zero)):
            got = linalg.rank(zerodiag.matrix_m(
                intersection_a_closed(variant), variant.theta_star, ctx))
            assert got == base


def test_zspace_report_assembly(std_dim1):
    arr, std, a = std_dim1
    report = zerodiag.build_zspace_report(arr, a, std.nums)
    assert report.rank_m == 3
    assert report.dim_z == 1
    assert len(report.coeff_basis) == 1
    assert report.L == linalg.mat_mul(report.T, report.M)
