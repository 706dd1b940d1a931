"""The zero diagonal space of a Leonard system.

Central objects: the 4x(d+1) moment matrix M built from the dual
eigenvalues and the diagonal intersection numbers, whose left null space
parameterizes the elements f0*I + f1*A* + f2*A + f3*A*A* with vanishing
projected diagonal; the boundary-product scalars (a_minus, a_plus); and
the companion matrices T and L = T*M used for the dependence criterion.

Everything here works in the standard basis {E*_i u}.  There A* is
diag(theta*), each E*_i is the coordinate projection e_i e_i^T, and the
condition E*_i X E*_i = 0 reads X_ii = 0.  That is why the rows of M are
the diagonals of I, A*, A and A A*: column i is (1, theta*_i, a_i,
a_i theta*_i).  It is also why no matrix is formed for a verdict: an
element X of Span{I, A*, A, A A*} has the entries
X_ij = [i = j](f0 + f1 theta*_i) + A_ij (f2 + f3 theta*_j), so its n
diagonal entries come from theta* and the diagonal of A
(combination_diagonal), and the rest of it, A being tridiagonal, from the
band of A (band_nonzero).  A A* and A* A are A with its columns and its
rows scaled by theta*; the independence certificate reads ten of their
entries (x_space_basis).  theta* is read off A*, and A* checked diagonal,
once per report (build_zspace_report); the report forms the kernel's
matrices (combination_matrix) only when its matrix_basis is read.

The kernel route (z_basis_kernel) is the authoritative computation; the
closed-form route is an independent cross-check whose coefficient
vectors come from the analysis tables, not from M: the dim-1 generator
u*P1 - v*P2 has the coefficients u*T_2 - v*T_3, as rows 2 and 3 of T
expand P1 = (A - a0 I)(A* - ts_d I) and P2 = (A - ad I)(A* - ts_0 I),
and the dim-2 pair is A - a0 I and A A* - a0 A*.  Each closed form is
defined once, by its coefficients (closed_dim1_coefficients,
closed_dim2_coefficients).  The map from coefficients to matrices is
linear, and injective once x_space_basis has certified I, A*, A and A A*
independent, so the span tests of the analysis compare the 4-coefficient
vectors of the two routes instead of their n^2-flattened matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import DependenceDetected, WrongBasis, ZeroDiagCheckFailed
from .realization import Basis


@dataclass
class ZCoefficients:
    """Coefficients of f0*I + f1*A_star + f2*A + f3*A*A_star."""

    f0: object
    f1: object
    f2: object
    f3: object

    def as_list(self):
        return [self.f0, self.f1, self.f2, self.f3]


@dataclass
class APMData:
    """Boundary products (a_i - a_0)(ts_i - ts_d) and (a_i - a_d)(ts_i - ts_0)."""

    a_minus: list
    a_plus: list


@dataclass
class ZSpaceReport:
    """M, L, T, the boundary products, rank M, dim Z and the kernel-route
    coefficients, with the standard-basis realization and its theta*."""

    M: list
    L: list
    T: list
    apm: APMData
    rank_m: int
    dim_z: int
    coeff_basis: list
    real: object
    theta_star: list

    @property
    def matrix_basis(self):
        """The kernel elements as matrices, formed on each read."""
        return [combination_matrix(c, self.real, self.theta_star) for c in self.coeff_basis]


def compute_apm(a, theta_star):
    d = len(a) - 1
    a_minus = [(a[i] - a[0]) * (theta_star[i] - theta_star[d]) for i in range(d + 1)]
    a_plus = [(a[i] - a[d]) * (theta_star[i] - theta_star[0]) for i in range(d + 1)]
    return APMData(a_minus, a_plus)


def matrix_m(a, theta_star, ctx):
    """Rows: all-ones, theta_star, a, and the entrywise product a*theta_star."""
    one = ctx.one
    return [
        [one for _ in a],
        list(theta_star),
        list(a),
        [x * t for x, t in zip(a, theta_star)],
    ]


def matrix_t(a0, ad, ts0, tsd, ctx):
    zero, one = ctx.zero, ctx.one
    return [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [a0 * tsd, -a0, -tsd, one],
        [ad * ts0, -ad, -ts0, one],
    ]


def matrix_l(apm, theta_star, ctx):
    one = ctx.one
    return [
        [one for _ in theta_star],
        list(theta_star),
        list(apm.a_minus),
        list(apm.a_plus),
    ]


def has_zero_diagonal(x):
    """Whether every diagonal entry X_ii is zero.

    X must be given in the standard basis.  There A* is diag(theta*), so
    E*_i = e_i e_i^T and E*_i X E*_i = X_ii E*_i: the paper's condition
    that every E*_i X E*_i vanishes is exactly that every X_ii vanishes.
    In another basis, such as the split one, the test means nothing.
    """
    return all(not x[i][i] for i in range(len(x)))


def _theta_star(real):
    """theta* read off the diagonal of A*, which must be diagonal, as it is
    in the standard basis."""
    if real.basis is not Basis.STANDARD:
        raise WrongBasis(
            f"the zero-diagonal test needs the standard basis, not {real.basis.value}")
    if any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(real.A_star)):
        raise WrongBasis("A* is not diagonal in the standard basis")
    return [row[i] for i, row in enumerate(real.A_star)]


def combination_matrix(coeffs, real, theta_star=None):
    """The element f0*I + f1*A_star + f2*A + f3*A*A_star in the standard basis.

    With A* = diag(theta*) its entries are
    X_ij = [i = j](f0 + f1 theta*_i) + A_ij (f2 + f3 theta*_j).  theta_star,
    where given, is the one already read off real's A*.
    """
    ts = _theta_star(real) if theta_star is None else theta_star
    f0, f1, f2, f3 = coeffs.as_list()
    col = [f2 + f3 * t for t in ts]
    out = [[x * col[j] if x else x for j, x in enumerate(row)] for row in real.A]
    for i, t in enumerate(ts):
        out[i][i] = out[i][i] + (f0 + f1 * t)
    return out


def combination_diagonal(coeffs, theta_star, a):
    """The diagonal entries X_ii = f0 + f1 theta*_i + A_ii (f2 + f3 theta*_i)
    of f0*I + f1*A_star + f2*A + f3*A*A_star in the standard basis, from
    theta* and the diagonal of A."""
    f0, f1, f2, f3 = coeffs.as_list()
    return [f0 + f1 * t + row[i] * (f2 + f3 * t) if row[i] else f0 + f1 * t
            for i, (t, row) in enumerate(zip(theta_star, a))]


def band_nonzero(coeffs, theta_star, a):
    """Whether an entry X_ij = A_ij (f2 + f3 theta*_j), j = i +- 1, of
    f0*I + f1*A_star + f2*A + f3*A*A_star is nonzero, for a tridiagonal A
    (standard_basis_rep forms A_std from its band): with the diagonal these
    are all the entries of X that can be nonzero.  A product of field
    elements is nonzero exactly when both factors are."""
    f2, f3 = coeffs.f2, coeffs.f3
    n = len(a)
    return any(a[i][j] and f2 + f3 * theta_star[j]
               for i in range(n) for j in (i - 1, i + 1) if 0 <= j < n)


def z_basis_kernel(m, real, theta_star=None):
    """Basis of the zero diagonal space from the left null space of M, as
    coefficient vectors.

    real's basis must be the standard one, and theta_star, where given, is
    the one already read off its A*.  Each kernel row is re-verified to
    have zero diagonal, read off theta* and the diagonal of real's A.
    """
    ts = _theta_star(real) if theta_star is None else theta_star
    out = []
    for row in linalg.left_nullspace(m, real.array.field):
        coeffs = ZCoefficients(*row)
        if any(combination_diagonal(coeffs, ts, real.A)):
            raise ZeroDiagCheckFailed(
                f"kernel element {[str(c) for c in row]} fails the diagonal check")
        out.append(coeffs)
    return out


def closed_dim2_coefficients(a0, ctx):
    """Coefficients of the closed-form dim-2 pair A - a0*I and A @ A_star - a0*A_star."""
    zero, one = ctx.zero, ctx.one
    return [ZCoefficients(-a0, zero, one, zero), ZCoefficients(zero, -a0, zero, one)]


def closed_dim1_coefficients(arr, a, u, v):
    """Coefficients u*T_2 - v*T_3 of the closed-form generator u*P1 - v*P2
    from a relation row u*a_minus = v*a_plus, where
    P1 = (A - a0*I)(A_star - ts_d*I) and P2 = (A - ad*I)(A_star - ts_0*I).

    Rows 2 and 3 of matrix_t are the coefficients of P1 and P2.
    """
    ts, d = arr.theta_star, arr.d
    t = matrix_t(a[0], a[d], ts[0], ts[d], arr.field)
    return ZCoefficients(*(u * p1 - v * p2 for p1, p2 in zip(t[2], t[3])))


def x_generators(real, theta_star=None):
    """The five canonical generators I, A_star, A, A @ A_star, A_star @ A
    as matrices.  The products are A's columns and rows scaled by theta*,
    as A* is diagonal in the standard basis."""
    ts = _theta_star(real) if theta_star is None else theta_star
    a_astar = [[x * ts[j] if x else x for j, x in enumerate(row)] for row in real.A]
    astar_a = [[x * t if x else x for x in row] for row, t in zip(real.A, ts)]
    return [linalg.identity(real.dim, real.array.field), real.A_star, real.A,
            a_astar, astar_a]


# The entries of the generators that x_space_basis certifies on; n = d + 1
# is at least 4.
_MINOR_ENTRIES = ((0, 0), (1, 1), (0, 1), (1, 0), (1, 2))


def x_space_basis(real, theta_star=None):
    """Certify the five canonical generators I, A_star, A, A @ A_star,
    A_star @ A linearly independent, or raise DependenceDetected.

    A nonzero 5 x 5 minor of their 5 x n^2 flattening proves rank 5.  The
    minor is on the entries (0,0), (1,1), (0,1), (1,0), (1,2) of each
    generator; with A* = diag(theta*), (A A*)_ij = A_ij theta*_j and
    (A* A)_ij = theta*_i A_ij, so it costs ten products and one det, and
    no product matrix is formed.  In the standard basis it is
    (theta*_1 - theta*_0)^2 (theta*_0 - theta*_2) b_0 c_0 b_1, which is
    nonzero once standard_basis_rep has passed.  Only when it vanishes are
    the generators formed (x_generators) and the full flattening ranked,
    so that DependenceDetected names their exact rank.  theta_star, where
    given, is the one already read off real's A*.
    """
    ts = _theta_star(real) if theta_star is None else theta_star
    ctx, a = real.array.field, real.A
    minor = [[ctx.one if i == j else ctx.zero for i, j in _MINOR_ENTRIES],
             [real.A_star[i][j] for i, j in _MINOR_ENTRIES],
             [a[i][j] for i, j in _MINOR_ENTRIES],
             [a[i][j] * ts[j] for i, j in _MINOR_ENTRIES],
             [ts[i] * a[i][j] for i, j in _MINOR_ENTRIES]]
    if not linalg.det(minor):
        rk = linalg.rank([linalg.flatten(m) for m in x_generators(real, ts)])
        if rk != 5:
            raise DependenceDetected(f"generators span only {rk} dimensions")


def dependence_equivalences(apm):
    """The three equivalent nonzero-space criteria on (a_minus, a_plus).

    Returns (rank_le_1, all_products_equal, interior_products_equal); the
    three booleans must agree on every instance.  The product test
    a_minus_i a_plus_j == a_plus_i a_minus_j holds at i = j by
    commutativity, and at (j, i) it is the (i, j) test with its sides
    swapped, so each unordered pair i < j is tested once.  Over Q the rank
    and the products run on the integer rows of linalg.integer_rows: a
    nonzero scale of each sequence changes none of the three booleans.
    """
    d = len(apm.a_minus) - 1
    rows = [apm.a_minus, apm.a_plus]
    scaled = linalg.integer_rows(rows)
    am, ap = rows if scaled is None else scaled[0]
    rank_le_1 = linalg.rank([am, ap]) <= 1

    def products_equal(indices):
        return all(am[i] * ap[j] == ap[i] * am[j]
                   for i in indices for j in indices if i < j)

    return rank_le_1, products_equal(range(d + 1)), products_equal(range(1, d))


def build_zspace_report(arr, a, real):
    """Assemble M, T, L, the boundary products, rank M, dim Z and the
    kernel-route Z basis; real's theta* is read off its A* here, once."""
    ctx = arr.field
    d = arr.d
    m = matrix_m(a, arr.theta_star, ctx)
    t = matrix_t(a[0], a[d], arr.theta_star[0], arr.theta_star[d], ctx)
    apm = compute_apm(a, arr.theta_star)
    l = matrix_l(apm, arr.theta_star, ctx)
    rank_m = linalg.rank(m)
    ts = _theta_star(real)
    return ZSpaceReport(
        M=m, L=l, T=t, apm=apm,
        rank_m=rank_m,
        dim_z=4 - rank_m,
        coeff_basis=z_basis_kernel(m, real, ts),
        real=real,
        theta_star=ts,
    )
