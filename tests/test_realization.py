import dataclasses
import math
import random
import re

import pytest

from conftest import (
    QQ,
    bidiagonal_idempotents,
    campaign_cell_samples,
    cross_route_samples,
    dense_split,
    eigenvectors,
    families_over,
    make_krawtchouk,
    standard_scale,
)
from leonardz import analysis, linalg, realization
from leonardz.analysis import analyze_instance
from leonardz.errors import (
    AxiomViolation,
    DegenerateArray,
    IdempotentCheckFailed,
    LeonardError,
    RepeatedEigenvalue,
    SingularBasis,
)
from leonardz.exactfield import parse_field
from leonardz.families import FAMILIES
from leonardz.parray import LeonardType, ParameterArray, build_parameter_array
from leonardz.realization import (
    intersection_a_closed,
    intersection_a_trace,
    primitive_idempotents,
    realize_split,
    standard_basis_rep,
    verify_axioms,
)
from leonardz.sampling import sample_spec


def qmat(rows):
    return [[QQ(x) for x in row] for row in rows]


def split_factors(real):
    """Rank-one factors of E (through the transpose of A) and of E*."""
    ctx = real.array.field
    e = bidiagonal_idempotents(real.theta, real.sub, ctx).transpose()
    return e, bidiagonal_idempotents(real.theta_star, real.sup, ctx)


def superdiagonals(factors):
    """v_(i+1)[i] and w_i[i + 1], i < d: all the a-trace reads of the factors."""
    return ([v[i] for i, v in enumerate(factors.v[1:])],
            [w[i + 1] for i, w in enumerate(factors.w[:-1])])


def a_trace(real, estar):
    """The reference a-trace w*_i . A v*_i, on the whole factors of E* and
    the dense A."""
    zero = real.array.field.zero
    a = dense_split(real)[0]
    return [sum((x * sum((m * y for m, y in zip(row, v)), zero) for x, row in zip(w, a)), zero)
            for v, w in zip(estar.v, estar.w)]


def with_lists(real, **lists):
    """real with the lists given in place of its own."""
    return dataclasses.replace(real, **lists)


def dense_sandwich(ws, mtx, vs):
    """The oracle W M V, formed by linalg.mat_mul, with the w_i as the rows
    of W and the v_j as the columns of V."""
    return linalg.mat_mul(linalg.mat_mul(ws, mtx), linalg.transpose(vs))


def band_of(full):
    """The entries (i, j) -> x of full with |i - j| <= 1."""
    n = len(full)
    return {(i, j): full[i][j] for i in range(n) for j in range(n) if abs(i - j) <= 1}


def off_band(full):
    """The entries (i, j) -> x of full with |i - j| > 1 and x != 0."""
    return {(i, j): x for i, row in enumerate(full) for j, x in enumerate(row)
            if abs(i - j) > 1 and x}


def not_tridiagonal(i, j, x):
    return f"A not tridiagonal at ({i},{j}): {x}"


def expected_zero(i, j, x):
    return str(AxiomViolation("E A* E", i, j, f"expected zero, got {x}"))


def refuse(i, j, x):
    raise AssertionError(f"off the band at ({i},{j})")


def closed_form(arr):
    """The closed form U of E*, of the split A* of arr."""
    return realization._TauStar.of(arr.theta_star, arr.phi1, arr.field)


def unscaled_band(u, band):
    """A band of T' = C T C^-1, by (i, j), as the band of T."""
    return {(i, j): x * u.scale(j) / u.scale(i) for (i, j), x in band.items()}


def closed_band(u, diag, sub, off_band=refuse):
    """The band of V^-1 A V for the lower bidiagonal A with diagonal diag
    and subdiagonal sub, certified on U and mapped back from T' to T."""
    return unscaled_band(u, u.band(diag, sub, off_band))


def fraction_band(diag, sub, vs, off_band):
    """The reference band of S = V^-1 M V for the lower bidiagonal M with
    diagonal diag and subdiagonal sub and a unit upper triangular V, read
    off V's columns and certified by M V = V T on field elements, with no
    closed form.

    Rows j + 1, j and j - 1 of column j fix t_(j+1)j, t_jj and t_(j-1)j;
    each row r <= j - 2 must then satisfy M V = V T, and the first nonzero
    residual met from r = j - 2 down is S[r][j]: off_band(r, j, S[r][j])
    gives the error raised.
    """
    n = len(vs)
    band = {}
    for j, v in enumerate(vs):
        nxt = vs[j + 1] if j + 1 < n else None
        t = diag[j] + sub[j - 1] * v[j - 1] if j else diag[j]
        if nxt is not None:
            t = t - sub[j] * nxt[j]
            band[j + 1, j] = sub[j] * v[j]
        band[j, j] = t
        for r in range(j - 1, -1, -1):
            x = (diag[r] - t) * v[r]
            if r:
                x = x + sub[r - 1] * v[r - 1]
            if nxt is not None:
                x = x - sub[j] * nxt[r]
            if r == j - 1:
                up = band[j - 1, j] = x
            elif x != up * vs[j - 1][r]:
                raise off_band(r, j, x - up * vs[j - 1][r])
    return band


def fraction_route(real):
    """The standard basis by the reference route: the band of V*^-1 A V*
    off the V* of bidiagonal_idempotents (fraction_band), then the gap
    check as standard_basis_rep makes it and the reference scale D
    (standard_scale), with C = I.
    Returns A of the standard basis, D^-1 T D, as a dense matrix, or
    raises what that route raises."""
    arr, n, one = real.array, len(real.theta), real.array.field.one
    vs = bidiagonal_idempotents(real.theta_star, real.sup, arr.field).v
    band = fraction_band(real.theta, real.sub, vs,
                         lambda i, j, x: SingularBasis(not_tridiagonal(i, j, x)))
    gap = min(((i, j) for (i, j), x in band.items() if i != j and not x), default=None)
    if gap:
        raise SingularBasis(f"off-diagonal intersection numbers must be nonzero: "
                            f"T at ({gap[0]},{gap[1]}) is {band[gap]}")
    scale = standard_scale(band, arr.d, real.theta[0], one, lambda i: one)
    a_std = [[arr.field.zero] * n for _ in range(n)]
    for (i, j), x in band.items():
        a_std[i][j] = x if i == j else x * scale[j] / scale[i]
    return a_std


def assert_names_an_off_band_entry(err, full, text):
    """err is text(i, j, x) for a nonzero entry x of the oracle full off its
    band; where full has one such entry, err names exactly that one."""
    named = {text(i, j, x) for (i, j), x in off_band(full).items()}
    assert str(err) in named, (str(err), sorted(named))


@pytest.fixture(scope="module")
def worked(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    real = realize_split(arr)
    return (arr, real) + split_factors(real)


def test_split_matrices_worked(worked):
    _, real, _, _ = worked
    assert (real.theta, real.sub) == tuple(qmat([[0, 1, 2, 3], [1, 1, 1]]))
    assert (real.theta_star, real.sup) == tuple(qmat([[0, 1, 2, 3], [-6, -8, -6]]))
    assert dense_split(real) == (
        qmat([[0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 3]]),
        qmat([[0, -6, 0, 0], [0, 1, -8, 0], [0, 0, 2, -6], [0, 0, 0, 3]]))


def test_split_shape_on_exemplars(exemplar_specs):
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        assert (real.theta, real.theta_star, real.sup) == (
            arr.theta, arr.theta_star, arr.phi1), spec
        assert real.sub == [arr.field.one] * arr.d, spec


def test_split_pair_copies_the_array(worked):
    """realize_split copies the array's lists, so a change to the pair
    leaves the array, and the closed form U built from it, as they were."""
    arr, real, _, _ = worked
    before = closed_form(arr).cols
    pair = realize_split(arr)
    for name, seq in (("theta", arr.theta), ("theta_star", arr.theta_star), ("sup", arr.phi1)):
        assert getattr(pair, name) is not seq, name
        getattr(pair, name)[1] += 1
    assert (arr.theta, arr.theta_star, arr.phi1) == (real.theta, real.theta_star, real.sup)
    assert closed_form(arr).cols == before


def test_counterexample_idempotent_columns():
    a = qmat([[1, 0, 0], [1, 2, 0], [0, 1, 5]])
    eigs = [QQ(1), QQ(2), QQ(5)]
    e = primitive_idempotents(a, eigs, QQ)
    assert [row[0] for row in e[0]] == [QQ(1), QQ(-1), QQ("1/4")]
    assert all(not e[0][i][j] for i in range(3) for j in (1, 2))
    assert e[2][2] == [QQ("1/12"), QQ("1/3"), QQ(1)]


def test_idempotents_of_diagonal_matrix():
    diag = qmat([[4, 0, 0], [0, 7, 0], [0, 0, 9]])
    eigs = [QQ(4), QQ(7), QQ(9)]
    for e in (primitive_idempotents(diag, eigs, QQ),
              bidiagonal_idempotents(eigs, [QQ(0)] * 2, QQ).projections()):
        for i in range(3):
            for r in range(3):
                for c in range(3):
                    expected = QQ(1) if r == c == i else QQ(0)
                    assert e[i][r][c] == expected


def test_repeated_eigenvalue_rejected():
    eigs = [QQ(4), QQ(4)]
    for route in (lambda: primitive_idempotents(qmat([[4, 0], [0, 4]]), eigs, QQ),
                  lambda: bidiagonal_idempotents(eigs, [QQ(0)], QQ),
                  lambda: realization._TauStar.of(eigs, [QQ(0)], QQ)):
        with pytest.raises(RepeatedEigenvalue):
            route()


@pytest.mark.parametrize("label", ["Q", "GF(7)", "GF(3^2)"])
def test_repeated_eigenvalue_named_alike_on_every_route(label):
    """The substitution routes find equal eigenvalues by a zero divisor, and
    the closed form U by a zero on its diagonal, and each names the pair
    that the whole check names first: (0, 4) for (1, 2, 3, 2, 1), though
    back-substitution meets the zero theta_3 - theta_1 first and
    U[3][3] = prod_(k<3) (theta_3 - theta_k) vanishes first; likewise
    (1, 3) for (1, 2, 3, 2).  verify_axioms builds both families' closed
    forms on the eigenvalues in their own order, E's on theta through
    A^T, so it names the pair as the closed form of E* does.  A fast
    verdict names the pair by standard_basis_rep's closed form before the
    a-routes divide, and a deep one by verify_axioms."""
    ctx = parse_field(label)
    for values, pair in (((1, 2, 3, 2, 1), "0 and 4"), ((1, 2, 3, 2), "1 and 3")):
        eigs, d = [ctx(x) for x in values], len(values) - 1
        ones = [ctx.one] * d
        arr = ParameterArray(ctx, d, eigs, eigs, ones, ones)
        routes = [lambda: realization._TauStar.of(eigs, ones, ctx),
                  lambda: verify_axioms(realize_split(arr)),
                  lambda: bidiagonal_idempotents(eigs, ones, ctx),
                  lambda: analyze_instance(None, arr),
                  lambda: analyze_instance(None, arr, deep=True)]
        for route in routes:
            with pytest.raises(RepeatedEigenvalue, match=f"^eigenvalues {pair} coincide$"):
                route()


def _assert_routes_agree(spec):
    """The rank-one and product-formula routes agree on E, E* and the standard basis.

    Both give the same E and E*.  The tridiagonal A of the intersection
    numbers satisfies A B = B nums.matrix() and A* B = B diag(theta*),
    where the columns of the invertible B are E*_i u formed densely from
    the product formula, with u the first nonzero column of E_0.
    """
    arr = build_parameter_array(spec)
    ctx = arr.field
    real = realize_split(arr)
    a, a_star = dense_split(real)
    e_fac, estar_fac = split_factors(real)
    estar = primitive_idempotents(a_star, arr.theta_star, ctx)
    assert estar_fac.projections() == estar, spec.name
    e = primitive_idempotents(a, arr.theta, ctx)
    assert e_fac.projections() == e, spec.name
    u = next(col for col in linalg.transpose(e[0]) if any(col))
    basis = linalg.transpose([[sum((x * y for x, y in zip(row, u)), ctx.zero) for row in f]
                              for f in estar])
    n = arr.d + 1
    assert linalg.rank(basis) == n, spec.name
    diagonal = [[t if i == j else ctx.zero for j in range(n)]
                for i, t in enumerate(arr.theta_star)]
    for split, standard in ((a, standard_basis_rep(real).matrix()), (a_star, diagonal)):
        assert linalg.mat_mul(split, basis) == linalg.mat_mul(basis, standard), spec.name


def test_bidiagonal_route_matches_product_formula_on_exemplars(exemplar_specs):
    for spec in exemplar_specs.values():
        _assert_routes_agree(spec)


@pytest.mark.parametrize("label", ["Q", "GF(1000003)", "GF(3^4)"])
def test_bidiagonal_route_matches_product_formula_sampled(label):
    ctx = parse_field(label)
    rng = random.Random(f"bidiagonal|{label}")
    checked = 0
    for d in range(3, 9):
        for name in families_over(ctx, d):
            _assert_routes_agree(sample_spec(name, d, ctx, rng))
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("eigs, pair", [
    ([1, 3, 1], "0 and 2"),
    ([2, 2, 5], "0 and 1"),
    ([1, 6, 6], "1 and 2"),
], ids=["first-and-last", "leading", "trailing"])
def test_bidiagonal_route_rejects_bad_input(eigs, pair):
    """The one input the route can refuse is a repeated eigenvalue: the
    matrix is given by its diagonal and superdiagonal, so it has no entry
    off its shape."""
    with pytest.raises(RepeatedEigenvalue, match=f"^eigenvalues {pair} coincide$") as info:
        bidiagonal_idempotents([QQ(x) for x in eigs], [QQ(2), QQ(5)], QQ)
    assert isinstance(info.value, LeonardError)


def test_left_eigenvector_is_the_family_factor(exemplar_specs):
    # Of V and W the a-trace reads only v_(i+1)[i] and w_i[i + 1], the
    # first substitution steps, sup_i / (theta_i - theta_(i+1)) and its
    # negative, on A* and on the transpose of A, and it is the trace read
    # off the whole factors.
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        for eigs, off in ((real.theta_star, real.sup), (real.theta, real.sub)):
            steps = [x / (eigs[i] - eigs[i + 1]) for i, x in enumerate(off)]
            family = bidiagonal_idempotents(eigs, off, arr.field)
            assert superdiagonals(family) == ([-x for x in steps], steps), spec
        assert intersection_a_trace(real) == a_trace(real, split_factors(real)[1]), spec
    with pytest.raises(RepeatedEigenvalue):
        bidiagonal_idempotents([QQ(1), QQ(1)], [QQ(2)], QQ)


def test_product_formula_on_dense_matrix():
    # M = P diag(eigs) P^-1, certified by M P = P diag(eigs).
    p = qmat([[2, 1, 0, 1], [1, 1, 1, 0], [0, 1, 2, 1], [1, 0, 1, 1]])
    mtx = qmat([["-1/4", "3/2", "-9/4", 3], [-3, "7/2", "-3/2", "9/2"],
                ["-21/4", "9/2", "-1/4", 6], ["-9/4", 3, "-3/4", "7/2"]])
    eigs = [QQ(2), QQ(-1), QQ(5), QQ("1/2")]
    diag = [[eigs[i] if i == j else QQ(0) for j in range(4)] for i in range(4)]
    assert linalg.mat_mul(mtx, p) == linalg.mat_mul(p, diag)
    assert_spectral_decomposition(primitive_idempotents(mtx, eigs, QQ), mtx, eigs, QQ)


@pytest.mark.parametrize("rows, eigs", [
    ([[7]], [7]),
    ([[1, 2], [2, 1]], [3, -1]),
], ids=["n1", "n2"])
def test_product_formula_smallest_sizes(rows, eigs):
    mtx, eigs = qmat(rows), [QQ(x) for x in eigs]
    assert_spectral_decomposition(primitive_idempotents(mtx, eigs, QQ), mtx, eigs, QQ)


def test_product_formula_rejects_wrong_spectrum():
    # 7 is not an eigenvalue of diag(1, 3, 6): E_0 comes out as diag(1, 0, -1/4).
    diag = qmat([[1, 0, 0], [0, 3, 0], [0, 0, 6]])
    with pytest.raises(IdempotentCheckFailed, match="not idempotent"):
        primitive_idempotents(diag, [QQ(1), QQ(3), QQ(7)], QQ)


def _count_mat_mul(monkeypatch):
    calls = []
    original = linalg.mat_mul

    def counted(a, b):
        calls.append(len(a))
        return original(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    return calls


def test_deep_analysis_operation_count(monkeypatch):
    # The certificates form no matrix product; the one left is T M.
    ctx = parse_field("GF(1000003)")
    spec = sample_spec(LeonardType.Q_RACAH, 12, ctx, random.Random("deep-count"))
    calls = _count_mat_mul(monkeypatch)
    chk = analyze_instance(spec, deep=True)
    assert chk.ok, chk.failures
    assert len(calls) == 1


def assert_spectral_decomposition(mats, mtx, eigs, ctx):
    """Orthogonality, completeness and M E_i = eig_i E_i, which fix the E_i uniquely."""
    n = len(mtx)
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            expected = ei if i == j else [[ctx.zero] * n for _ in range(n)]
            assert linalg.mat_mul(ei, ej) == expected, (i, j)
    total = [[sum(col, ctx.zero) for col in zip(*rows)] for rows in zip(*mats)]
    assert total == linalg.identity(n, ctx)
    for m, eig in zip(mats, eigs):
        assert linalg.mat_mul(mtx, m) == linalg.mat_scale(eig, m)


def test_idempotent_set_full_verification(worked):
    arr, real, e, estar = worked
    a, a_star = dense_split(real)
    assert_spectral_decomposition(e.projections(), a, arr.theta, QQ)
    assert_spectral_decomposition(estar.projections(), a_star, arr.theta_star, QQ)


def test_intersection_a_closed_decreasing(worked):
    arr, _, _, _ = worked
    assert intersection_a_closed(arr) == [QQ(6), QQ(3), QQ(0), QQ(-3)]


def test_intersection_a_constant(kraw_dim2):
    arr = build_parameter_array(kraw_dim2)
    assert intersection_a_closed(arr) == [QQ("3/2")] * 4


def test_intersection_a_closed_dual_q_krawtchouk(dual_q_krawtchouk_spec):
    arr = build_parameter_array(dual_q_krawtchouk_spec)
    assert intersection_a_closed(arr)[0] == QQ("-26/27")


def test_trace_route_equals_closed(worked):
    arr, real, _, estar = worked
    assert intersection_a_trace(real) == a_trace(real, estar) == intersection_a_closed(arr)


def test_trace_route_on_exemplars(exemplar_specs):
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        a = intersection_a_trace(real)
        assert a == a_trace(real, split_factors(real)[1]) == intersection_a_closed(arr)
        total = a[0]
        for x in a[1:]:
            total = total + x
        trace = real.theta[0]
        for x in real.theta[1:]:
            trace = trace + x
        assert total == trace


def test_a_sequence_reverses_with_dual_order(exemplar_specs):
    from leonardz.parray import reverse_dual

    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        flipped = intersection_a_closed(reverse_dual(arr))
        assert flipped == intersection_a_closed(arr)[::-1]


def test_standard_basis_worked(worked):
    arr, real, e, estar = worked
    nums = standard_basis_rep(real)
    assert nums.a == [QQ(6), QQ(3), QQ(0), QQ(-3)]
    assert all(nums.b) and all(nums.c)
    assert nums.matrix() == fraction_route(real)


def test_standard_basis_tridiagonal_on_exemplars(exemplar_specs):
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        e, estar = split_factors(real)
        nums = standard_basis_rep(real)
        assert nums.a == intersection_a_closed(arr)
        assert all(nums.b) and all(nums.c)


def _poly(roots, x):
    """The product of (x - r) over roots."""
    out = x - x + 1
    for r in roots:
        out = out * (x - r)
    return out


def test_intersection_numbers_match_closed_forms():
    """b_i, c_i and the row sums c_i + a_i + b_i against Terwilliger's
    closed forms.

    With tau*_i(x) = prod_{h<i} (x - theta*_h) and eta*_i(x) =
    prod_{h<i} (x - theta*_{d-h}): b_i = phi_{i+1} tau*_i(theta*_i) /
    tau*_{i+1}(theta*_{i+1}), c_i = phi2_i eta*_{d-i}(theta*_i) /
    eta*_{d-i+1}(theta*_{i-1}) and c_i + a_i + b_i = theta_0, checked on
    one sample per campaign cell at d 3..6.
    """
    checked = 0
    for spec in campaign_cell_samples(range(3, 7)):
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        e, estar = split_factors(real)
        nums = standard_basis_rep(real)
        d, ts = arr.d, arr.theta_star
        rev = ts[::-1]
        for i in range(d):
            assert nums.b[i] == (arr.phi1_at(i + 1) * _poly(ts[:i], ts[i])
                                 / _poly(ts[:i + 1], ts[i + 1])), (spec, i)
        for i in range(1, d + 1):
            assert nums.c[i - 1] == (arr.phi2_at(i) * _poly(rev[:d - i], ts[i])
                                     / _poly(rev[:d - i + 1], ts[i - 1])), (spec, i)
        for i in range(d + 1):
            row = nums.a[i]
            if i > 0:
                row = row + nums.c[i - 1]
            if i < d:
                row = row + nums.b[i]
            assert row == arr.theta[0], (spec, i)
        checked += 1
    assert checked == 130


def test_singular_basis_detected(monkeypatch, worked):
    """A band whose theta_0-eigenvector has a zero entry is refused: the
    worked A has theta_0 = A[0][0] = 0, and T D = 0 for D = (1, 0, -1, 1).
    The band is injected as the closed form's T' = C T C^-1, whose
    D' = C D vanishes where D does."""
    _, real, _, _ = worked
    rows = qmat([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]])
    monkeypatch.setattr(realization._TauStar, "band",
                        lambda self, diag, sub, off_band: band_of(rows))
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(real)
    assert str(info.value) == "E*_1 u vanishes: D_1 = 0"


def _with_a(real, entries):
    """real with x added to A[r][c] for each (r, c) -> x of entries, each
    on A's diagonal (c = r) or subdiagonal (c = r - 1)."""
    theta, sub = list(real.theta), list(real.sub)
    for (r, c), x in entries.items():
        seq, k = {r: (theta, r), r - 1: (sub, c)}[c]
        seq[k] = seq[k] + QQ(x)
    return with_lists(real, theta=theta, sub=sub)


@pytest.mark.parametrize("entries, named", [
    # A + x e_r e_c^T adds x (W* e_r)(e_c^T V*) to W* A V*: rows i <= r,
    # columns j >= c.  Column 2 is certified first, from row 0.
    ({(0, 0): 1}, (0, 2)),
    # off the band at (0,3) and (1,3): column 3 is read from row 1 up
    ({(3, 3): -2}, (1, 3)),
    ({(3, 2): 1, (0, 0): 5}, (0, 2)),
])
def test_certificate_names_the_off_band_entry(worked, entries, named):
    _, real, e, estar = worked
    broken = _with_a(real, entries)
    full = dense_sandwich(estar.w, dense_split(broken)[0], estar.v)
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(broken)
    assert_names_an_off_band_entry(info.value, full, not_tridiagonal)
    assert str(info.value) == not_tridiagonal(*named, full[named[0]][named[1]])


def test_certificates_name_a_lone_off_band_entry():
    """On the diameter-2 boundary example, a perturbed corner of A or of A*
    leaves one entry off the band, and each certificate names that one."""
    eigs = [QQ(1), QQ(2), QQ(5)]
    arr = ParameterArray(QQ, 2, eigs, eigs, [QQ(-1), QQ(-9)], [QQ(-1), QQ(-9)])
    real = realize_split(arr)
    e, estar = split_factors(real)
    assert verify_axioms(real)
    # adds 2 (W* e_0)(e_0^T V*), which lives in row 0
    broken = with_lists(real, theta=[QQ(3)] + eigs[1:])
    full = dense_sandwich(estar.w, dense_split(broken)[0], estar.v)
    assert list(off_band(full)) == [(0, 2)]
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(broken)
    assert str(info.value) == not_tridiagonal(0, 2, full[0][2])
    # A is certified with E first: only A* is perturbed now; this adds
    # (W e_2)(e_2^T V), which lives in row 2
    broken = with_lists(real, theta_star=eigs[:2] + [QQ(6)])
    full = dense_sandwich(e.w, dense_split(broken)[1], e.v)
    assert list(off_band(full)) == [(2, 0)]
    with pytest.raises(AxiomViolation) as info:
        verify_axioms(broken)
    assert str(info.value) == expected_zero(2, 0, full[2][0])


def test_fast_analysis_never_forms_the_full_sandwich(monkeypatch):
    """Neither mode forms an n x n product of the factors: the one matrix
    product is the T M of L_equals_TM.  b and c come from the band by the
    row sums, with no scale D, and deep mode certifies the closed forms of
    the right factors alone."""
    counts = {"mat_mul": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    for name in counts:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    for name in (LeonardType.Q_RACAH, LeonardType.RACAH):
        spec = sample_spec(name, 16, QQ, random.Random(f"certificate|{name.value}"))
        for deep in (False, True):
            counts.update(mat_mul=0)
            chk = analyze_instance(spec, deep=deep)
            assert chk.ok, (deep, chk.failures)
            assert counts["mat_mul"] == 1, deep


def test_deep_analysis_forms_no_sandwich(monkeypatch, exemplar_specs):
    """Deep mode checks both families and E A* E in one verify_axioms call
    per verdict, on the split A*, and the flags do not change; no n x n
    product is formed (test_fast_analysis_never_forms_the_full_sandwich
    counts them)."""
    calls = []

    def once(real):
        calls.append(real)
        return verify(real)

    verify = analysis.verify_axioms
    for spec in exemplar_specs.values():
        banded = analyze_instance(spec, deep=True)
        with monkeypatch.context() as m:
            m.setattr(analysis, "verify_axioms", once)
            chk = analyze_instance(spec, deep=True)
        assert chk.ok, (spec.name, chk.failures)
        assert chk.flags == banded.flags, spec.name
        assert calls == [realize_split(chk.arr)], spec.name
        calls.clear()


def e_family_form(real):
    """The closed form U_A of E: of A^T, with diagonal theta and
    superdiagonal A's subdiagonal."""
    arr = real.array
    return realization._TauStar.of(arr.theta, real.sub, arr.field)


def test_certify_and_transposed_band_on_cross_route_samples():
    """The eigenvectors of the closed forms are those of the reference
    families, V* of A* from U and the left factors W of A's projections
    from U_A, each w_i with w_i[i] = 1, both certify, and the band that
    verify_axioms reads on U_A and A*^T, mapped back from T' to T and
    transposed, is the band of the dense W A* V, which is zero off the
    band."""
    checked = 0
    for spec in cross_route_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        e, estar = split_factors(real)
        u, u_a = closed_form(arr), e_family_form(real)
        assert eigenvectors(u) == estar.v, spec
        assert eigenvectors(u_a) == e.w, spec
        u.certify(real.theta_star, real.sup, "E* of A*")
        u_a.certify(real.theta, real.sub, "E of A^T")
        assert verify_axioms(real), spec
        full = dense_sandwich(e.w, dense_split(real)[1], e.v)
        assert not off_band(full), spec
        band = closed_band(u_a, real.theta_star, real.sup)
        assert {(j, i): x for (i, j), x in band.items()} == band_of(full), spec
        checked += 1
    assert checked == 130 + 12 + 12 + 7


def test_band_and_trace_match_the_full_sandwich():
    """The band certified on U, mapped back from T' to T, and the W*-side
    a-trace against the dense W* A V*, and the reference band read off V*
    (fraction_band) against both."""
    checked = 0
    for spec in cross_route_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        estar = split_factors(real)[1]
        full = dense_sandwich(estar.w, dense_split(real)[0], estar.v)
        n = arr.d + 1
        assert not off_band(full), spec
        assert closed_band(closed_form(arr), real.theta, real.sub) == band_of(full), spec
        assert fraction_band(real.theta, real.sub, estar.v, refuse) == band_of(full), spec
        assert intersection_a_trace(real) == [full[i][i] for i in range(n)], spec
        # Both a-routes read theta_i + v*_i[i-1]; the trace adds w*_i[i+1]
        # where the band subtracts v*_(i+1)[i], equal as W* V* = I.
        assert all(estar.w[i][i + 1] == -estar.v[i + 1][i] for i in range(n - 1)), spec
        checked += 1
    assert checked == 130 + 12 + 12 + 7


def test_closed_form_matches_the_dense_sandwich_on_every_field():
    """On every field, the intersection numbers that standard_basis_rep
    reads off the closed form U, as a matrix, are the A of the
    reference route on the V* of bidiagonal_idempotents, whose band is
    that of the dense W* A V*, and a deep analysis reads the same b and
    c.  The package has no substitution route, so no verdict forms an
    eigenvector by substitution."""
    checked, labels = 0, set()
    for spec in cross_route_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        nums = standard_basis_rep(real)
        assert nums.matrix() == fraction_route(real), spec
        chk = analyze_instance(spec, arr, deep=True)
        assert chk.ok, (spec, chk.failures)
        assert (chk.nums.b, chk.nums.c) == (nums.b, nums.c), spec
        labels.add(spec.field.label())
        checked += 1
    assert checked == 130 + 12 + 12 + 7
    assert {"Q", "GF(1000003)", "GF(3^4)"} <= labels


def test_row_sums_give_the_b_and_c_of_the_scale():
    """b and c, which standard_basis_rep reads off the certified band
    T' = C T C^-1 by the row sums c_(i-1) + a_i + b_i = theta_0, are those
    of D'^-1 T' D' = D^-1 T D with the scale D' = C D of the reference
    recurrence on the same band (standard_scale): on one sample per
    campaign cell, the orphan over GF(2^2) and GF(2^3) among them, and a
    d = 16 sample per family over Q, GF(1000003) and GF(3^4)."""
    checked, labels = 0, set()
    for spec in cross_route_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        u = closed_form(arr)
        band = u.band(real.theta, real.sub, refuse)
        scale = standard_scale(band, arr.d, real.theta[0], arr.field.one, u.scale)
        nums = standard_basis_rep(real)
        steps = range(arr.d)
        assert nums.a == [band[i, i] for i in range(arr.d + 1)], spec
        assert nums.b == [band[i, i + 1] * scale[i + 1] / scale[i] for i in steps], spec
        assert nums.c == [band[i + 1, i] * scale[i] / scale[i + 1] for i in steps], spec
        labels.add((spec.name is LeonardType.ORPHAN, spec.field.label()))
        checked += 1
    assert checked == 130 + 12 + 12 + 7
    assert {(False, "Q"), (False, "GF(1000003)"), (False, "GF(3^4)"),
            (True, "GF(2^2)"), (True, "GF(2^3)")} <= labels


def u_by_substitution(sub, theta, one):
    """u with A u = theta_0 u and u_0 = 1 for the lower bidiagonal A with
    diagonal theta and subdiagonal sub, by forward substitution: row c
    reads sub_(c-1) u_(c-1) + theta_c u_c."""
    u = [one]
    for c in range(1, len(theta)):
        u.append(u[-1] * sub[c - 1] / (theta[0] - theta[c]))
    return u


def test_scale_is_the_normalised_w_star_u():
    """The reference recurrence's D (standard_scale) is W* u / (w*_0 . u),
    with W* the whole left family and u the theta_0-eigenvector of A, both
    formed here by substitution: on the band of T' = C T C^-1 it gives
    D' = C D."""
    checked = 0
    for spec in cross_route_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        e, estar = split_factors(real)
        u = u_by_substitution(real.sub, real.theta, arr.field.one)
        assert u == e.v[0]
        old = [sum((x * y for x, y in zip(w, u)), arr.field.zero) for w in estar.w]
        tau = closed_form(arr)
        band = tau.band(real.theta, real.sub, refuse)
        scale = standard_scale(band, arr.d, real.theta[0], arr.field.one, tau.scale)
        assert [x / tau.scale(i) for i, x in enumerate(scale)] == [x / old[0] for x in old], spec
        checked += 1
    assert checked == 130 + 12 + 12 + 7


@pytest.mark.parametrize("entry", ["last-diagonal", "last-subdiagonal", "first-diagonal"])
def test_perturbed_band_fails_the_last_row(monkeypatch, worked, entry):
    """A band entry moved by 1 leaves T D = theta_0 D false in row d.
    Moving t_dd or t_(d,d-1) changes no D_i, so the residual is D_d or
    D_(d-1); moving t_00 changes D_1..D_d.  The certified band is
    T' = C T C^-1, so t_ij moves by 1 where t'_ij moves by C_i / C_j, and
    the residual named is that of T."""
    arr, real, _, estar = worked
    d = arr.d
    key = {"last-diagonal": (d, d), "last-subdiagonal": (d, d - 1),
           "first-diagonal": (0, 0)}[entry]
    u = u_by_substitution(real.sub, real.theta, arr.field.one)
    w_u = [sum((x * y for x, y in zip(w, u)), arr.field.zero) for w in estar.w]
    scale = [x / w_u[0] for x in w_u]

    def bent(self, diag, sub, off_band):
        band = band_certified(self, diag, sub, off_band)
        band[key] = band[key] + self.scale(key[0]) / self.scale(key[1])
        return band

    band_certified = realization._TauStar.band
    monkeypatch.setattr(realization._TauStar, "band", bent)
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(real)
    prefix = f"(T - theta_0 I) D != 0 in row {d}: "
    assert str(info.value).startswith(prefix)
    if key != (0, 0):
        assert str(info.value) == prefix + str(scale[key[1]])


@pytest.mark.parametrize("label", ["Q", "GF(1000003)", "GF(3^4)"])
def test_a_bent_band_fails_as_the_scale_names_it(monkeypatch, label):
    """Each band entry of a d = 6 sample moved by one, and t'_11 moved by
    b_1, on every field, end standard_basis_rep in the SingularBasis that
    the reference recurrence on the same band raises (standard_scale),
    text for text: the residual of row d, whose D_d is formed on the
    failure path only, or where some b_i vanishes, as b_1 does by the last
    move, "E*_(i+1) u vanishes"."""
    ctx = parse_field(label)
    arr = build_parameter_array(sample_spec(
        LeonardType.Q_RACAH, 6, ctx, random.Random(f"last-row|{label}")))
    real, u = realize_split(arr), closed_form(arr)
    certified = u.band(real.theta, real.sub, refuse)
    moves = [(key, ctx.one) for key in certified] + [((1, 1), standard_basis_rep(real).b[1])]
    named = []
    for key, x in moves:
        band = dict(certified)
        band[key] = band[key] + x
        monkeypatch.setattr(realization._TauStar, "band", lambda *_: band)
        outcomes = []
        for route in (lambda: standard_basis_rep(real),
                      lambda: standard_scale(band, arr.d, real.theta[0], ctx.one, u.scale)):
            with pytest.raises(SingularBasis) as info:
                route()
            outcomes.append(str(info.value))
        assert outcomes[0] == outcomes[1], key
        named.append(outcomes[0])
    assert named[-1] == "E*_2 u vanishes: D_2 = 0"
    assert all(x.startswith(("(T - theta_0 I) D != 0 in row 6: ", "E*_")) for x in named)


def _with_phi(arr, phi):
    return ParameterArray(arr.field, arr.d, arr.theta, arr.theta_star, phi, arr.phi2)


def test_zero_intersection_number_named(worked):
    """A zero t_ij next to the diagonal of the certified band would make
    b_i or c_j zero.  phi_2 = 0 gives t_12 = 0; with every phi_i = 0, A*
    is diagonal, its V* is I and T = A, with t_01 = 0 first in row-major
    order.  The closed form cuts U at each zero phi_i and reads it as one
    in P and C, so C stays invertible."""
    arr, _, _, _ = worked
    for phi, named in (([arr.phi1[0], QQ(0)] + arr.phi1[2:], "(1,2)"),
                       ([QQ(0)] * arr.d, "(0,1)")):
        with pytest.raises(SingularBasis) as info:
            standard_basis_rep(realize_split(_with_phi(arr, phi)))
        assert str(info.value) == (
            f"off-diagonal intersection numbers must be nonzero: T at {named} is 0")


@pytest.mark.parametrize("label", ["Q", "GF(1000003)", "GF(3^4)"])
def test_zero_phi_ends_in_a_singular_basis(label):
    """A hand-built array with phi_2 = 0 is refused with the SingularBasis
    that names t_12 = 0 on every field, and with any one phi_i = 0 at
    d = 3 and 6 the closed form raises what the reference route on the
    V* of bidiagonal_idempotents raises, class and text."""
    ctx = parse_field(label)
    for d in (3, 6):
        arr = build_parameter_array(sample_spec(
            LeonardType.Q_RACAH, d, ctx, random.Random(f"zero-phi|{label}|{d}")))
        for i in range(d):
            real = realize_split(_with_phi(arr, arr.phi1[:i] + [ctx.zero] + arr.phi1[i + 1:]))
            with pytest.raises(SingularBasis) as info:
                standard_basis_rep(real)
            with pytest.raises(SingularBasis) as reference:
                fraction_route(real)
            assert str(info.value) == str(reference.value), (d, i)
            if (d, i) == (3, 1):
                assert str(info.value) == (
                    "off-diagonal intersection numbers must be nonzero: T at (1,2) is 0")


@pytest.fixture(scope="module")
def sampled_d6():
    arr = build_parameter_array(
        sample_spec(LeonardType.Q_RACAH, 6, QQ, random.Random("certificate-fails")))
    real = realize_split(arr)
    return (real,) + split_factors(real)


def closed_form_patched(monkeypatch, family_eigs, change):
    """Patch _TauStar.of so that each closed form built on family_eigs
    (the diagonal it is given, in its own order) is changed by change(u).
    A pair keeps the U of E* it built before the patch (u_star), so the
    caller builds its pair afresh."""
    original = realization._TauStar.of

    def patched(eigs, phi, ctx):
        u = original(eigs, phi, ctx)
        if list(eigs) == list(family_eigs):
            change(u)
        return u

    monkeypatch.setattr(realization._TauStar, "of", staticmethod(patched))


@pytest.mark.parametrize("j, r", [(5, 2), (6, 0), (4, 3), (1, 0)],
                         ids=["below-band", "corner", "next-to-diagonal", "first-column"])
def test_certificate_fails_on_a_perturbed_factor(monkeypatch, sampled_d6, j, r):
    """A perturbed closed form U' is still upper triangular, but V'^-1 A V'
    is no longer tridiagonal for V' = P^-1 U' C; the certificate names one
    of its off-band entries.  The pair is built afresh, as each pair builds
    its U once and the fixture's may hold one from an earlier test."""
    arr = sampled_d6[0].array
    real = realize_split(arr)

    def perturb(u):
        u.cols[j][r] = u.cols[j][r] + 1

    u = closed_form(arr)
    perturb(u)
    vs = eigenvectors(u)
    v = linalg.transpose(vs)
    full = dense_sandwich(linalg.solve_matrix(v, linalg.identity(len(v), QQ)),
                          dense_split(real)[0], vs)
    closed_form_patched(monkeypatch, arr.theta_star, perturb)
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(real)
    assert_names_an_off_band_entry(info.value, full, not_tridiagonal)


@pytest.mark.parametrize("r", [0, 3, 6])
def test_certificate_fails_on_a_perturbed_eigenvalue(sampled_d6, r):
    real, e, estar = sampled_d6
    broken = _with_a(real, {(r, r): 1})
    full = dense_sandwich(estar.w, dense_split(broken)[0], estar.v)
    with pytest.raises(SingularBasis) as info:
        standard_basis_rep(broken)
    assert_names_an_off_band_entry(info.value, full, not_tridiagonal)


def _family(real, family):
    """(closed form, diagonal, superdiagonal) that verify_axioms certifies
    for E* (of A*) or for E (of A^T)."""
    if family == "E*":
        return closed_form(real.array), real.theta_star, real.sup
    return e_family_form(real), real.theta, real.sub


@pytest.mark.parametrize("family", ["E*", "E"])
@pytest.mark.parametrize("i, r, residual", [
    # U[r][i] enters rows r - 1 (by sigma_(r-1)) and r (by theta_r - theta_i)
    # of M' U, on A* for E* and on A^T for E alike.
    (6, 0, "M v_6 != theta_6 v_6 in row 0"),
    (4, 2, "M v_4 != theta_4 v_4 in row 1"),
    (3, 3, "M v_3 != theta_3 v_3 in row 2"),
    # 2 v*_0 and 2 w_0 are eigenvectors still: a column scaling survives
    (0, 0, None),
], ids=["v-corner", "v-inner", "v-diagonal", "v-alone"])
def test_certify_names_a_perturbed_factor(sampled_d6, family, i, r, residual):
    """One entry of U or U_A moved by 1 fails the eigen-certificate in the
    first row it enters, named by its column and row.  The one move that
    leaves an eigenvector, the single entry of column 0, scales that
    column: it certifies, and its eigenvectors, each with v_j[j] = 1, are
    those of the unmoved U."""
    u, diag, sup = _family(sampled_d6[0], family)
    u.certify(diag, sup, "M")
    before = eigenvectors(u)
    u.cols[i][r] = u.cols[i][r] + 1
    if residual is None:
        u.certify(diag, sup, "M")
        assert eigenvectors(u) == before
        return
    with pytest.raises(IdempotentCheckFailed) as info:
        u.certify(diag, sup, "M")
    assert str(info.value) == "rank-one M: " + residual


@pytest.mark.parametrize("family", ["E*", "E"])
def test_certify_names_swapped_eigenvalues(sampled_d6, family):
    """U built on eigenvalues 1 and 4 exchanged does not certify against the
    matrix.  Column 1 of U holds tau_r(theta_4), r <= 1, and meets
    theta_1 - theta_4 in row 1, on the theta* of A* for E* and on the
    theta of A^T for E."""
    real = sampled_d6[0]
    arr = real.array
    _, diag, sup = _family(real, family)
    eigs = list(arr.theta_star if family == "E*" else arr.theta)
    eigs[1], eigs[4] = eigs[4], eigs[1]
    u = realization._TauStar.of(eigs, sup, QQ)
    with pytest.raises(IdempotentCheckFailed) as info:
        u.certify(diag, sup, "M")
    assert str(info.value) == "rank-one M: M v_1 != theta_1 v_1 in row 1"


def test_certify_names_a_residual_that_m_does_not_reach():
    # Row 0 of M' U has no term, as M[0][0] = 0, yet theta_0 U[0][0] = 1.
    u = realization._TauStar.of([QQ(1), QQ(5)], [QQ(0)], QQ)
    with pytest.raises(IdempotentCheckFailed) as info:
        u.certify([QQ(0), QQ(5)], [QQ(0)], "M")
    assert str(info.value) == "rank-one M: M v_0 != theta_0 v_0 in row 0"
    u.certify([QQ(1), QQ(5)], [QQ(0)], "M")


def test_certify_checks_its_input(sampled_d6):
    """Equal eigenvalues leave a zero on U's diagonal, and the pair is named."""
    real = sampled_d6[0]
    eigs = real.array.theta_star
    with pytest.raises(RepeatedEigenvalue, match="^eigenvalues 0 and 1 coincide$"):
        realization._TauStar.of([eigs[0]] + list(eigs[:-1]), real.array.phi1, QQ)


def test_standard_basis_of_a_scaled_and_a_shifted_a(sampled_d6):
    """2A has the subdiagonal 2 and A + I the unit one; both are lower
    bidiagonal, so each band comes from U alone, and it is the band of the
    dense W* A V*."""
    real, e, estar = sampled_d6
    nums = standard_basis_rep(real)
    two = with_lists(real, theta=[QQ(2) * x for x in real.theta],
                     sub=[QQ(2) * x for x in real.sub])
    assert closed_band(closed_form(real.array), two.theta, two.sub) == band_of(
        dense_sandwich(estar.w, dense_split(two)[0], estar.v))
    doubled = standard_basis_rep(two)
    assert doubled.a == [QQ(2) * x for x in nums.a]
    assert doubled.b == [QQ(2) * x for x in nums.b]
    assert doubled.c == [QQ(2) * x for x in nums.c]
    assert intersection_a_trace(two) == a_trace(two, estar) == doubled.a
    shifted = _with_a(real, {(i, i): 1 for i in range(len(real.theta))})
    moved = standard_basis_rep(shifted)
    assert moved.a == [x + QQ(1) for x in nums.a]
    assert (moved.b, moved.c) == (nums.b, nums.c)
    assert intersection_a_trace(shifted) == a_trace(shifted, estar) == moved.a


def rational_samples(d_values=range(3, 17)):
    """One seeded sample per family over Q at each d."""
    for d in d_values:
        for name in families_over(QQ, d):
            yield sample_spec(name, d, QQ, random.Random(f"integer-band|{name.value}|{d}"))


def test_integer_band_is_the_fraction_band():
    """On U the certified band is T' = C T C^-1: mapped back by
    t_ij = t'_ij C_j / C_i it is the band that the reference route reads off
    the V* of bidiagonal_idempotents (fraction_band), and the reference
    scale D' = C D of T' (standard_scale) is the D of T times C; one
    sample per family at every d in 3..16 over Q."""
    checked = 0
    for spec in rational_samples():
        arr = build_parameter_array(spec)
        real = realize_split(arr)
        vs = split_factors(real)[1].v
        band = fraction_band(real.theta, real.sub, vs, refuse)
        u = closed_form(arr)
        scaled = u.band(real.theta, real.sub, refuse)
        assert unscaled_band(u, scaled) == band, spec
        theta0 = real.theta[0]
        scale = standard_scale(band, arr.d, theta0, QQ.one, lambda i: QQ.one)
        assert standard_scale(scaled, arr.d, theta0, QQ.one, u.scale) == [
            x * u.scale(i) for i, x in enumerate(scale)], spec
        checked += 1
    assert checked == 168


def test_right_factors_factor_through_tau_star():
    """v*_j[r] = (Phi_j / Phi_r) tau*_r(theta*_j) / tau*_j(theta*_j), with
    Phi_r = phi_1 ... phi_r, is bidiagonal_idempotents' V* entry for entry
    (both sides vanish for r > j); _TauStar holds U[r][j] =
    L^r tau*_r(theta*_j) and C_j = Phi_j / tau*_j(theta*_j), its
    P^-1 U C is V*, and it certifies A* U = U diag(theta*) while U with
    its corner U[0][d] moved by 1 does not."""
    for spec in rational_samples():
        arr = build_parameter_array(spec)
        ts, n = arr.theta_star, arr.d + 1
        real = realize_split(arr)
        vs = bidiagonal_idempotents(ts, real.sup, QQ).v
        phi = [QQ(1)]
        for x in arr.phi1:
            phi.append(phi[-1] * x)
        tau = [[_poly(ts[:r], ts[j]) for j in range(n)] for r in range(n)]
        assert vs == [[phi[j] / phi[r] * tau[r][j] / tau[j][j] for r in range(n)]
                      for j in range(n)], spec
        u = closed_form(arr)
        assert u.lcm == math.lcm(*(t.denominator for t in ts)), spec
        assert u.cols == [[u.lcm ** r * tau[r][j] for r in range(j + 1)] for j in range(n)], spec
        assert [u.scale(j) for j in range(n)] == [phi[j] / tau[j][j] for j in range(n)], spec
        assert eigenvectors(u) == vs, spec
        diag, sup = real.theta_star, real.sup
        u.certify(diag, sup, "E* of A*")
        u.cols[-1][0] += 1
        with pytest.raises(IdempotentCheckFailed, match=f"M v_{n - 1} != theta_{n - 1} "):
            u.certify(diag, sup, "E* of A*")


def perturbed_arrays(seq):
    """One array per family at d = 3 and 8 over Q for each entry of the
    sequence seq moved by 1, built directly and kept where its eigenvalues
    stay distinct."""
    for spec in rational_samples((3, 8)):
        arr = build_parameter_array(spec)
        for i in range(len(getattr(arr, seq))):
            values = {k: list(getattr(arr, k)) for k in ("theta", "theta_star", "phi1", "phi2")}
            values[seq][i] = values[seq][i] + 1
            broken = ParameterArray(QQ, arr.d, **values)
            try:
                yield spec, i, broken.validate()
            except LeonardError:
                continue


@pytest.mark.parametrize("seq", ["theta", "theta_star", "phi1"])
def test_routes_fail_alike_on_a_perturbed_array(seq):
    """The closed form raises the exception class and message text of the
    reference route (V* by back-substitution, fraction_route), or both give
    the same standard basis, on arrays with one theta, theta* or phi entry
    moved by 1; the values a failure names are converted from T' to T on
    its cold path.  Every such array is refused."""
    failed = checked = 0
    for spec, i, arr in perturbed_arrays(seq):
        real = realize_split(arr)
        outcomes = []
        for route in (lambda: standard_basis_rep(real).matrix(), lambda: fraction_route(real)):
            try:
                outcomes.append(route())
            except LeonardError as err:
                outcomes.append((type(err), str(err)))
        assert outcomes[0] == outcomes[1], (spec, i)
        failed += isinstance(outcomes[0], tuple)
        checked += 1
    assert failed == checked == {"theta": 149, "theta_star": 152, "phi1": 132}[seq]


def test_zero_phi_takes_the_fraction_route(worked):
    """With a zero phi_i the closed form cuts U there (v*_j[r] = 0 for
    r < i <= j) and reads phi_i as one in P and C, so it ends where the
    reference route on V*, built by back-substitution, ends: a zero t_ij,
    named as before."""
    arr, real, _, _ = worked
    broken = realize_split(_with_phi(arr, arr.phi1[:1] + [QQ(0)] + arr.phi1[2:]))
    assert closed_form(broken.array).cols[2][:2] == [0, 0]
    for route in (standard_basis_rep, fraction_route):
        with pytest.raises(SingularBasis) as info:
            route(broken)
        assert str(info.value) == (
            "off-diagonal intersection numbers must be nonzero: T at (1,2) is 0")


@pytest.mark.parametrize("n", [3, 5], ids=["smaller", "larger"])
@pytest.mark.parametrize("which", ["A", "A*"])
def test_wrong_size_realization_is_refused(worked, which, n):
    """A split pair whose A or A* is not (d + 1) x (d + 1) cannot be built:
    each list of that matrix, alone one entry short (n = 3) or long
    (n = 5) for d = 3, raises DegenerateArray, which names the list and
    its length."""
    arr, real, _, _ = worked
    for name in ("theta", "sub") if which == "A" else ("theta_star", "sup"):
        seq = getattr(real, name)
        wrong = (seq + seq)[:len(seq) + n - 4]
        named = f"{name} has {len(wrong)} entries, not {len(seq)} (d = 3)"
        with pytest.raises(DegenerateArray, match=f"^{re.escape(named)}$"):
            with_lists(real, **{name: wrong})
        with pytest.raises(DegenerateArray, match=f"^{re.escape(named)}$"):
            realization.Realization(arr, **{k: wrong if k == name else getattr(real, k)
                                            for k in ("theta", "sub", "theta_star", "sup")})


def test_axioms_pass_on_worked(worked):
    arr, real, e, _ = worked
    assert verify_axioms(real)


def test_axioms_detect_broken_superdiagonal(kraw_dim1):
    """phi_1 = 0 subtracts phi_1 (W e_0)(e_1^T V) from W A* V: its (0,1)
    entry vanishes, and so do none of (2,0), (3,0), (3,1) off the band.
    The certificate reads the transposed band, column by column, so it
    names (2,0): entry (0,2) of column 2 is the first it reads off the
    band."""
    arr = build_parameter_array(kraw_dim1)
    broken = ParameterArray(arr.field, arr.d, arr.theta, arr.theta_star,
                            [QQ(0)] + arr.phi1[1:], arr.phi2)
    real = realize_split(broken)
    e = split_factors(real)[0]
    full = dense_sandwich(e.w, dense_split(real)[1], e.v)
    assert not full[0][1] and sorted(off_band(full)) == [(2, 0), (3, 0), (3, 1)]
    with pytest.raises(AxiomViolation) as info:
        verify_axioms(real)
    assert str(info.value) == expected_zero(2, 0, full[2][0])


@pytest.mark.parametrize("where, r", [("diagonal", r) for r in range(7)]
                         + [("superdiagonal", r) for r in range(6)]
                         + [("zero-superdiagonal", r) for r in range(6)])
def test_axioms_fallback_names_what_the_full_sandwich_names(sampled_d6, where, r):
    """A* perturbed on its band: the certificate on U_A names an entry off
    the band of the dense W A* V and its value."""
    real, e, _ = sampled_d6
    theta_star, sup = list(real.theta_star), list(real.sup)
    if where == "diagonal":
        theta_star[r] = theta_star[r] + QQ(1)
    else:
        sup[r] = QQ(0) if where.startswith("zero") else sup[r] + QQ(1)
    broken = with_lists(real, theta_star=theta_star, sup=sup)
    full = dense_sandwich(e.w, dense_split(broken)[1], e.v)
    with pytest.raises(AxiomViolation) as info:
        verify_axioms(broken)
    assert_names_an_off_band_entry(info.value, full, expected_zero)


def test_axioms_band_names_a_zero_band_entry():
    """Krawtchouk at r = 0 has phi = 0, so A* = diag(theta*).  V^-1 A* V is
    still tridiagonal, the certificate on U_A holds, and the zero entries
    of the band's superdiagonal fail the pattern, the first in row-major
    order named."""
    spec = make_krawtchouk("0", d=4)
    theta, theta_star, phi1, phi2 = FAMILIES[spec.name].build(spec)
    real = realize_split(ParameterArray(QQ, 4, theta, theta_star, phi1, phi2))
    e = split_factors(real)[0]
    full = dense_sandwich(e.w, dense_split(real)[1], e.v)
    assert not off_band(full) and not full[0][1]
    with pytest.raises(AxiomViolation) as info:
        verify_axioms(real)
    assert str(info.value) == "E A* E at (0,1) expected nonzero"


def test_axioms_detect_perturbed_a(monkeypatch, kraw_dim1):
    """Deep mode compares the diagonal of E* A E* with the closed a_i
    through the two a-flags, and both catch a perturbed a_2."""
    closed = analysis.intersection_a_closed

    def perturbed(arr):
        a = closed(arr)
        a[2] = a[2] + QQ(1)
        return a

    monkeypatch.setattr(analysis, "intersection_a_closed", perturbed)
    chk = analyze_instance(kraw_dim1, deep=True)
    assert chk.flags["a_trace_equals_closed"] is False
    assert chk.flags["a_standard_equals_closed"] is False


@pytest.mark.parametrize("name", ["theta", "sub", "theta_star", "sup"])
def test_every_list_of_the_pair_is_checked(monkeypatch, sampled_d6, name):
    """Each entry of each of the four lists, moved by 1, ends a deep verdict
    in a typed error: verify_axioms reads all four.  A fast verdict reads
    sup in the a-trace alone, and a moved sup FAILs a_trace_equals_closed
    there.  The array the pair was built from stays as it was."""
    real = sampled_d6[0]
    arr = real.array
    spec = sample_spec(LeonardType.Q_RACAH, 6, QQ, random.Random("certificate-fails"))
    assert build_parameter_array(spec) == arr
    for i in range(len(getattr(real, name))):
        moved = list(getattr(real, name))
        moved[i] = moved[i] + 1
        broken = with_lists(real, **{name: moved})
        with monkeypatch.context() as m:
            m.setattr(analysis, "realize_split", lambda _: broken)
            with pytest.raises(LeonardError):
                analyze_instance(spec, arr, deep=True)
            if name == "sup":
                chk = analyze_instance(spec, arr)
                assert chk.flags["a_trace_equals_closed"] is False, i
                assert chk.failures == ["a_trace_equals_closed"], i
    assert realize_split(arr) == real


@pytest.mark.parametrize("label", ["Q", "GF(1000003)"])
def test_equal_theta_star_neighbours_of_the_pair_are_named(monkeypatch, label):
    """A pair whose theta_star has two equal neighbours, though the array's
    has none (only the library API builds one), ends a fast verdict in
    the a-trace's division, which names the equal pair on every field
    (RepeatedEigenvalue), not in a bare zero division.  A deep verdict
    refuses the pair before, in verify_axioms."""
    ctx = parse_field(label)
    spec = sample_spec(LeonardType.Q_RACAH, 6, ctx, random.Random(f"equal-theta-star|{label}"))
    arr = build_parameter_array(spec)
    ts = list(arr.theta_star)
    ts[2] = ts[1]
    broken = with_lists(realize_split(arr), theta_star=ts)
    with pytest.raises(RepeatedEigenvalue, match="^eigenvalues 1 and 2 coincide$"):
        intersection_a_trace(broken)
    monkeypatch.setattr(analysis, "realize_split", lambda _: broken)
    with pytest.raises(RepeatedEigenvalue, match="^eigenvalues 1 and 2 coincide$"):
        analyze_instance(spec, arr)
    with pytest.raises(AxiomViolation):
        analyze_instance(spec, arr, deep=True)


def test_counterexample_system_passes_patterns():
    a = qmat([[1, 0, 0], [1, 2, 0], [0, 1, 5]])
    a_star = qmat([[1, -1, 0], [0, 2, -9], [0, 0, 5]])
    eigs = [QQ(1), QQ(2), QQ(5)]
    e = primitive_idempotents(a, eigs, QQ)
    estar = primitive_idempotents(a_star, eigs, QQ)
    for outer, inner in ((estar, a), (e, a_star)):
        for i in range(3):
            for j in range(3):
                prod = linalg.mat_mul(linalg.mat_mul(outer[i], inner), outer[j])
                if abs(i - j) > 1:
                    assert linalg.is_zero_matrix(prod)
                if abs(i - j) == 1:
                    assert not linalg.is_zero_matrix(prod)
