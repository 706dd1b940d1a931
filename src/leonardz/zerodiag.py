"""The zero diagonal space of a Leonard system.

Central objects: the 4x(d+1) moment matrix M built from the dual
eigenvalues and the diagonal intersection numbers, whose left null space
parameterizes the elements f0*I + f1*A* + f2*A + f3*A*A* with vanishing
projected diagonal; the boundary-product scalars (a_minus, a_plus); and
the companion matrices T and L = T*M used for the dependence criterion.
An element of Span{I, A*, A, A A*} is held as its coefficient vector,
the list [f0, f1, f2, f3]: the row linalg ranks and the report prints.

Everything here works in the standard basis {E*_i u}.  There A* is
diag(theta*), A is tridiagonal with the intersection numbers
(c_i, a_i, b_i) (realization.IntersectionNumbers), each E*_i is the
coordinate projection e_i e_i^T, and the condition E*_i X E*_i = 0 reads
X_ii = 0.  So Z, and every zero-diagonal flag, depends only on (a, b, c,
theta*), and the functions here take those, with theta* the array's.
That is why the rows of M are the diagonals of I, A*, A and A A*: column
i is (1, theta*_i, a_i, a_i theta*_i).  It is also why no matrix is
formed for a verdict: an element X of Span{I, A*, A, A A*} has the
entries X_ij = [i = j](f0 + f1 theta*_i) + A_ij (f2 + f3 theta*_j), so
its n diagonal entries come from theta* and a (combination_diagonal),
and the rest of it from b and c (band_nonzero).  A A* and A* A are A
with its columns and its rows scaled by theta*; the independence
certificate reads ten of their entries (x_space_basis).  The dense A
(IntersectionNumbers.matrix) is formed only for the analyze report's Z
matrices, when its matrix_basis is read (combination_matrix), and on the
dependence fallback (x_generators).

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
from .errors import DependenceDetected, ZeroDiagCheckFailed


@dataclass
class APMData:
    """Boundary products (a_i - a_0)(ts_i - ts_d) and (a_i - a_d)(ts_i - ts_0)."""

    a_minus: list
    a_plus: list


@dataclass
class ZSpaceReport:
    """M, L, T, the boundary products, rank M, dim Z and the kernel-route
    coefficients, with the intersection numbers and theta* they are on."""

    M: list
    L: list
    T: list
    apm: APMData
    rank_m: int
    dim_z: int
    coeff_basis: list
    nums: object
    theta_star: list

    @property
    def matrix_basis(self):
        """The kernel elements as matrices, formed on each read."""
        return [combination_matrix(c, self.nums, self.theta_star) for c in self.coeff_basis]


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


def combination_matrix(coeffs, nums, theta_star):
    """The element f0*I + f1*A_star + f2*A + f3*A*A_star in the standard
    basis, as a matrix.

    With A* = diag(theta*) its entries are
    X_ij = [i = j](f0 + f1 theta*_i) + A_ij (f2 + f3 theta*_j), with A the
    tridiagonal matrix of the intersection numbers nums.
    """
    f0, f1, f2, f3 = coeffs
    col = [f2 + f3 * t for t in theta_star]
    out = [[x * col[j] if x else x for j, x in enumerate(row)] for row in nums.matrix()]
    for i, t in enumerate(theta_star):
        out[i][i] = out[i][i] + (f0 + f1 * t)
    return out


def combination_diagonal(coeffs, theta_star, a):
    """The diagonal entries X_ii = f0 + f1 theta*_i + a_i (f2 + f3 theta*_i)
    of f0*I + f1*A_star + f2*A + f3*A*A_star in the standard basis, from
    theta* and the diagonal a of A."""
    f0, f1, f2, f3 = coeffs
    return [f0 + f1 * t + x * (f2 + f3 * t) if x else f0 + f1 * t
            for t, x in zip(theta_star, a)]


def band_nonzero(coeffs, theta_star, nums):
    """Whether an entry X_(i,i+1) = b_i (f2 + f3 theta*_(i+1)) or
    X_(i+1,i) = c_i (f2 + f3 theta*_i) of f0*I + f1*A_star + f2*A + f3*A*A_star
    is nonzero: with the diagonal these are all the entries of X that can
    be nonzero, A being tridiagonal.  A product of field elements is
    nonzero exactly when both factors are."""
    _, _, f2, f3 = coeffs
    return any(b and f2 + f3 * theta_star[i + 1] or c and f2 + f3 * theta_star[i]
               for i, (b, c) in enumerate(zip(nums.b, nums.c)))


def z_basis_kernel(m, a, theta_star, ctx):
    """Basis of the zero diagonal space: the rows of the left null space
    of M, each a coefficient vector [f0, f1, f2, f3].

    Each row is re-verified to have zero diagonal, read off theta* and the
    diagonal a of the standard-basis A, and the rows checked are returned.
    """
    rows = linalg.left_nullspace(m, ctx)
    for row in rows:
        if any(combination_diagonal(row, theta_star, a)):
            raise ZeroDiagCheckFailed(
                f"kernel element {[str(c) for c in row]} fails the diagonal check")
    return rows


def closed_dim2_coefficients(a0, ctx):
    """Coefficients of the closed-form dim-2 pair A - a0*I and A @ A_star - a0*A_star."""
    zero, one = ctx.zero, ctx.one
    return [[-a0, zero, one, zero], [zero, -a0, zero, one]]


def closed_dim1_coefficients(arr, a, u, v):
    """Coefficients u*T_2 - v*T_3 of the closed-form generator u*P1 - v*P2
    from a relation row u*a_minus = v*a_plus, where
    P1 = (A - a0*I)(A_star - ts_d*I) and P2 = (A - ad*I)(A_star - ts_0*I).

    Rows 2 and 3 of matrix_t are the coefficients of P1 and P2.
    """
    ts, d = arr.theta_star, arr.d
    t = matrix_t(a[0], a[d], ts[0], ts[d], arr.field)
    return [u * p1 - v * p2 for p1, p2 in zip(t[2], t[3])]


def x_generators(nums, theta_star, ctx):
    """The five canonical generators I, A_star, A, A @ A_star, A_star @ A
    as matrices, with A the tridiagonal matrix of nums.  The first four
    are the combination_matrix of the unit coefficient vectors; A* A is
    A with its rows scaled by theta*, as A* = diag(theta*)."""
    zero, one = ctx.zero, ctx.one
    units = [[one if k == i else zero for k in range(4)] for i in range(4)]
    astar_a = [[x * t if x else x for x in row] for row, t in zip(nums.matrix(), theta_star)]
    return [combination_matrix(c, nums, theta_star) for c in units] + [astar_a]


def x_space_basis(nums, theta_star, ctx):
    """Certify the five canonical generators I, A_star, A, A @ A_star,
    A_star @ A linearly independent, or raise DependenceDetected.

    A nonzero 5 x 5 minor of their 5 x n^2 flattening proves rank 5.  The
    minor is on the entries (0,0), (1,1), (0,1), (1,0), (1,2) of each
    generator, where A reads a0, a1, b0, c0, b1 and A* = diag(theta*)
    reads theta*_0, theta*_1, 0, 0, 0; (A A*)_ij = A_ij theta*_j and
    (A* A)_ij = theta*_i A_ij, so it costs ten products and one det, and
    no matrix is formed (n = d + 1 is at least 4).  It is
    (theta*_1 - theta*_0)^2 (theta*_0 - theta*_2) b_0 c_0 b_1, which is
    nonzero once standard_basis_rep has passed.  Only when it vanishes are
    the generators formed (x_generators) and the full flattening ranked,
    so that DependenceDetected names their exact rank.
    """
    ts, zero, one = theta_star, ctx.zero, ctx.one
    cells = ((0, 0), (1, 1), (0, 1), (1, 0), (1, 2))
    a = (nums.a[0], nums.a[1], nums.b[0], nums.c[0], nums.b[1])
    minor = [[one, one, zero, zero, zero],
             [ts[0], ts[1], zero, zero, zero],
             list(a),
             [x * ts[j] for x, (_, j) in zip(a, cells)],
             [ts[i] * x for x, (i, _) in zip(a, cells)]]
    if not linalg.det(minor):
        rk = linalg.rank([linalg.flatten(m) for m in x_generators(nums, ts, ctx)])
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


def build_zspace_report(arr, a, nums):
    """Assemble M, T, L, the boundary products, rank M, dim Z and the
    kernel-route Z basis.  M is built on the closed-form a; the kernel is
    re-verified on the diagonal of the intersection numbers nums."""
    ctx, d, ts = arr.field, arr.d, arr.theta_star
    m = matrix_m(a, ts, ctx)
    t = matrix_t(a[0], a[d], ts[0], ts[d], ctx)
    apm = compute_apm(a, ts)
    l = matrix_l(apm, ts, ctx)
    rank_m = linalg.rank(m)
    return ZSpaceReport(
        M=m, L=l, T=t, apm=apm,
        rank_m=rank_m,
        dim_z=4 - rank_m,
        coeff_basis=z_basis_kernel(m, nums.a, ts, ctx),
        nums=nums,
        theta_star=ts,
    )
