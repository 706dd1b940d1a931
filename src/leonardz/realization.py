"""Matrix realizations of a parameter array.

realize_split produces the defining bidiagonal pair: A lower bidiagonal
with eigenvalue diagonal and unit subdiagonal, A* upper bidiagonal with
dual eigenvalue diagonal and the first split sequence on the
superdiagonal.  Primitive idempotents come by two routes.  The analysis
builds them as rank-one outer products of left and right eigenvectors,
found by substitution in O(n^2) each: bidiagonal_idempotents takes an
upper bidiagonal or diagonal matrix such as A* directly, and A through
its transpose.  The spectral product formula, post-verified, works for
any multiplicity-free matrix and is the reference route that deep mode,
the tests and the boundary example use.  standard_basis_rep changes to
the basis of projected vectors E*_i u, where A* becomes diagonal and A
becomes irreducible tridiagonal, exposing the intersection numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import linalg
from .errors import (
    AxiomViolation,
    IdempotentCheckFailed,
    RepeatedEigenvalue,
    SingularBasis,
    SingularMatrix,
)


class Basis(str, Enum):
    SPLIT = "split"
    STANDARD = "standard"


@dataclass
class Realization:
    """A concrete matrix pair representing a Leonard system."""

    array: object
    A: list
    A_star: list
    basis: Basis

    @property
    def dim(self):
        return len(self.A)


@dataclass
class IntersectionNumbers:
    """Tridiagonal data of A in the standard basis: diagonal a, super b, sub c."""

    a: list
    b: list
    c: list


def realize_split(arr):
    """Split-basis matrices of the Leonard system with parameter array arr."""
    ctx = arr.field
    n = arr.d + 1
    a = linalg.zeros(n, n, ctx)
    a_star = linalg.zeros(n, n, ctx)
    one = ctx.one
    for i in range(n):
        a[i][i] = arr.theta[i]
        a_star[i][i] = arr.theta_star[i]
        if i > 0:
            a[i][i - 1] = one
            a_star[i - 1][i] = arr.phi1_at(i)
    return Realization(arr, a, a_star, Basis.SPLIT)


def _check_distinct(eigs):
    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if eigs[i] == eigs[j]:
                raise RepeatedEigenvalue(f"eigenvalues {i} and {j} coincide")


def primitive_idempotents(mtx, eigs, ctx):
    """Spectral projections of a multiplicity-free matrix, one per eigenvalue.

    Each projection is the product of (M - eig_j I)/(eig_i - eig_j) over
    j != i, and is post-verified to square to itself.
    """
    _check_distinct(eigs)
    n = len(mtx)
    shifts = []
    for ej in eigs:
        m = [row[:] for row in mtx]
        for r in range(n):
            m[r][r] = m[r][r] - ej
        shifts.append(m)
    out = []
    for i, ei in enumerate(eigs):
        prod = None
        denom = ctx.one
        for j, ej in enumerate(eigs):
            if j == i:
                continue
            prod = shifts[j] if prod is None else linalg.mat_mul(prod, shifts[j])
            denom = denom * (ei - ej)
        if prod is None:
            prod = linalg.identity(n, ctx)
        prod = linalg.mat_scale(ctx.one / denom, prod)
        if not linalg.mat_eq(linalg.mat_mul(prod, prod), prod):
            raise IdempotentCheckFailed(f"projection {i} is not idempotent")
        out.append(prod)
    return out


def bidiagonal_idempotents(mtx, eigs, ctx):
    """Spectral projections of an upper bidiagonal matrix whose diagonal is eigs.

    A diagonal matrix qualifies, and so does the transpose of a lower
    bidiagonal matrix such as the split A, whose projections are the
    transposes of the ones returned.  The right eigenvector v_i of eigs[i]
    comes from back-substitution and has support 0..i; the left
    eigenvector w_i comes from forward substitution and has support i..d.
    With v_i[i] = w_i[i] = 1 their product w_i v_i is 1, so the
    projection is the outer product v_i w_i^T.  For a triangular matrix
    the shape and diagonal checks are what verify the spectrum.
    """
    _check_distinct(eigs)
    n = len(eigs)
    if len(mtx) != n:
        raise IdempotentCheckFailed(f"{len(mtx)} rows for {n} eigenvalues")
    for r, row in enumerate(mtx):
        if row[r] != eigs[r]:
            raise IdempotentCheckFailed(f"diagonal entry {r} is not eigenvalue {r}")
        for c, x in enumerate(row):
            if x and c != r and c != r + 1:
                raise IdempotentCheckFailed(f"entry ({r},{c}) is off the bidiagonal")
    sup = [mtx[r][r + 1] for r in range(n - 1)]
    zero, one = ctx.zero, ctx.one
    out = []
    for i, eig in enumerate(eigs):
        v = [zero] * n
        v[i] = one
        for r in range(i - 1, -1, -1):
            v[r] = sup[r] * v[r + 1] / (eig - eigs[r])
        w = [zero] * n
        w[i] = one
        for c in range(i + 1, n):
            w[c] = w[c - 1] * sup[c - 1] / (eig - eigs[c])
        out.append([[x * y for y in w] if x else [zero] * n for x in v])
    return out


def verify_idempotent_set(mats, mtx, eigs, ctx):
    """Full spectral-decomposition check: orthogonality, completeness, eigen relation."""
    n = len(mtx)
    for i, ei in enumerate(mats):
        for j, ej in enumerate(mats):
            prod = linalg.mat_mul(ei, ej)
            expected = ei if i == j else linalg.zeros(n, n, ctx)
            if not linalg.mat_eq(prod, expected):
                raise IdempotentCheckFailed(f"E_{i} E_{j} mismatch")
    total = mats[0]
    for m in mats[1:]:
        total = linalg.mat_add(total, m)
    if not linalg.mat_eq(total, linalg.identity(n, ctx)):
        raise IdempotentCheckFailed("projections do not sum to the identity")
    for i, (m, eig) in enumerate(zip(mats, eigs)):
        if not linalg.mat_eq(linalg.mat_mul(mtx, m), linalg.mat_scale(eig, m)):
            raise IdempotentCheckFailed(f"M E_{i} != eig_{i} E_{i}")


def intersection_a_trace(real, estar):
    """a_i as the trace of E*_i A."""
    return [linalg.trace(linalg.mat_mul(e, real.A)) for e in estar]


def intersection_a_closed(arr):
    """a_i from the closed formulas in theta, theta_star, phi1."""
    d = arr.d
    th, ts = arr.theta, arr.theta_star
    out = [th[0] + arr.phi1_at(1) / (ts[0] - ts[1])]
    for i in range(1, d):
        out.append(th[i] + arr.phi1_at(i) / (ts[i] - ts[i - 1])
                   + arr.phi1_at(i + 1) / (ts[i] - ts[i + 1]))
    out.append(th[d] + arr.phi1_at(d) / (ts[d] - ts[d - 1]))
    return out


def _first_nonzero_column(mtx):
    for j in range(len(mtx[0])):
        col = [row[j] for row in mtx]
        if any(col):
            return col
    return None


def standard_basis_rep(real, e_set, estar_set):
    """Change basis to {E*_i u} with u a nonzero column of E_0.

    Returns the standard-basis realization (A irreducible tridiagonal,
    A* diagonal) together with the intersection numbers read off A.
    """
    arr = real.array
    ctx = arr.field
    n = real.dim
    u = _first_nonzero_column(e_set[0])
    if u is None:
        raise SingularBasis("E_0 has no nonzero column")
    basis_mtx = [[ctx.zero] * n for _ in range(n)]
    for i, estar in enumerate(estar_set):
        v = linalg.mat_vec(estar, u)
        for r in range(n):
            basis_mtx[r][i] = v[r]
    try:
        a_std = linalg.solve_matrix(basis_mtx, linalg.mat_mul(real.A, basis_mtx))
        a_star_std = linalg.solve_matrix(basis_mtx, linalg.mat_mul(real.A_star, basis_mtx))
    except SingularMatrix:
        raise SingularBasis("projected vectors E*_i u are linearly dependent") from None
    std = Realization(arr, a_std, a_star_std, Basis.STANDARD)
    nums = _extract_intersection_numbers(std)
    return std, nums


def _extract_intersection_numbers(std):
    arr = std.array
    d = arr.d
    a_std, a_star_std = std.A, std.A_star
    for i in range(d + 1):
        for j in range(d + 1):
            expected_star = arr.theta_star[i] if i == j else arr.field.zero
            if a_star_std[i][j] != expected_star:
                raise SingularBasis(f"A* not diagonal at ({i},{j})")
            if abs(i - j) >= 2 and a_std[i][j]:
                raise SingularBasis(f"A not tridiagonal at ({i},{j})")
    a = [a_std[i][i] for i in range(d + 1)]
    b = [a_std[i][i + 1] for i in range(d)]
    c = [a_std[i + 1][i] for i in range(d)]
    if not all(b) or not all(c):
        raise SingularBasis("off-diagonal intersection numbers must be nonzero")
    return IntersectionNumbers(a, b, c)


def verify_axioms(real, e_set, estar_set):
    """Check the tridiagonal-vanishing pattern and the diagonal coefficients.

    E_i A* E_j and E*_i A E*_j must vanish exactly when |i-j| > 1 and be
    nonzero when |i-j| = 1; E*_i A E*_i must equal a_i E*_i, with a_i
    from the closed formulas.
    """
    n = real.dim
    a = intersection_a_closed(real.array)
    for which, outer, inner in (("E A* E", e_set, real.A_star),
                                ("E* A E*", estar_set, real.A)):
        for i in range(n):
            left = linalg.mat_mul(outer[i], inner)
            for j in range(n):
                prod = linalg.mat_mul(left, outer[j])
                vanished = linalg.is_zero_matrix(prod)
                if abs(i - j) > 1 and not vanished:
                    raise AxiomViolation(which, i, j, "expected zero")
                if abs(i - j) == 1 and vanished:
                    raise AxiomViolation(which, i, j, "expected nonzero")
                if which == "E* A E*" and i == j:
                    if not linalg.mat_eq(prod, linalg.mat_scale(a[i], estar_set[i])):
                        raise AxiomViolation("E* A E* diagonal", i, i,
                                             "does not equal a_i E*_i")
    return True
