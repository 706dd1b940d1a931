"""Matrix realizations of a parameter array.

realize_split produces the defining bidiagonal pair: A lower bidiagonal
with eigenvalue diagonal and unit subdiagonal, A* upper bidiagonal with
dual eigenvalue diagonal and the first split sequence on the
superdiagonal.  The primitive idempotents are kept as factors found by
substitution in O(n^2) each, and the analysis reads only right ones:
V* of the upper bidiagonal A* by back-substitution and V of the lower
bidiagonal A by forward substitution (bidiagonal_right_factors).  Where
V is invertible and V^-1 M V = diag(theta), E_i = v_i w_i^T with w_i row
i of W = V^-1, so E_i M' E_j = (V^-1 M' V)_ij v_i w_j^T: the change to
the standard basis {E*_i u} and both tridiagonal axioms read bands of
V^-1 M' V, certified by M' V = V T without forming W.  The fast
analysis forms no factor of E, and of E* only the entries v*_(i+1)[i]
and w*_i[i + 1] that the a-trace meets (factor_superdiagonals); deep
mode builds and certifies V and V* whole, and reads those entries off
V*.  bidiagonal_idempotents gives both factors of an upper bidiagonal or
diagonal matrix, w_i by forward substitution, as SpectralFactors; the
boundary example (counterexample) and the tests use it, the analysis
does not.

Two kinds of O(n^2) certificate stand in for dense products.
certify_right_factors proves M v_i = theta_i v_i for each i, with the
theta distinct; together with the unit triangular shape of V, which the
band readers check, that is V^-1 M V = diag(theta), so the v_i are the
right factors of the primitive idempotents.  _bidiagonal_band reads the
band T of S = V^-1 M V off V's columns for a lower bidiagonal M and a
unit upper triangular V, certified by M V = V T; where the certificate
fails, it names an entry of S off the band and its value.  The E A* E
pattern is read this way (verify_axioms), on the image of A* and V with
rows and columns in reverse order, where A* is lower bidiagonal and V
unit upper triangular.

The E* A E* pattern is the band T of W* A V* = V*^-1 A V* for the lower
bidiagonal A; it also gives the standard basis.  Over Q it is certified
on integers.  Back-substitution gives
v*_j[r] = (Phi_j / Phi_r) tau*_r(theta*_j) / tau*_j(theta*_j), with
tau*_r(x) = prod_(k<r) (x - theta*_k) and Phi_r = phi_1 ... phi_r
(Terwilliger, LAA 330 (2001)).  So V* = P^-1 U C with the integer matrix
U[r][j] = L^r tau*_r(theta*_j), where L clears theta*'s denominators, and
the diagonal P = diag(Phi_r L^r) and C = diag(Phi_j / tau*_j(theta*_j)).
A V* = V* T is then A' U = U T' with A' = P A P^-1 (diagonal theta,
subdiagonal L phi) and T' = C T C^-1, and _TauStar.band certifies it row
by row as identities of Python ints, building Rationals only for the
three band entries of each column (the fraction-free idea of
linalg._eliminate; Bareiss 1968).  No Fraction V* is formed.  Deep mode
passes its certified V*, which _TauStar.ties checks against U entry for
entry, v*_j[r] Phi_r tau*_j(theta*_j) = Phi_j tau*_r(theta*_j), in
O(n^2); a V* that does not tie, an array with a zero phi_i, and every
finite field take the band off V*'s columns with _bidiagonal_band, V*
built by back-substitution where not given (_tridiagonal_band chooses).

The scale D_i = w*_i . u of E*_i u = D_i v*_i comes from the band too: as
A u = theta_0 u, D = W* u is the theta_0-eigenvector of T, the row-sum
identity c_i + a_i + b_i = theta_0 of the standard basis, and a
three-term recurrence gives it in O(n) (_standard_scale).  On T' it gives
D' = C D, since C_0 = 1, and A_std = D^-1 T D = D'^-1 T' D', so C is never
formed.  A failure names entries of T and D, not of T' and D': on its
cold path the value is converted, S_ij = S'_ij C_j / C_i and
D_i = D'_i / C_i (_unscaled).  Other shapes are refused: _check_shape
names the first entry of a matrix or factor family that is off its
bidiagonal or unit triangular shape.  The a-trace reads (i, i),
(i, i - 1) and (i + 1, i) of the split A,
a_i = theta_i + v*_i[i - 1] + w*_i[i + 1], and the band
t_ii = theta_i + v*_i[i - 1] - v*_(i+1)[i]: the two a-routes share
theta_i + v*_i[i - 1] and differ in w*_i[i + 1] against -v*_(i+1)[i],
equal only because W* V* = I.

primitive_idempotents is the definition of the projections, the product
over j != i of (M - theta_j I)/(theta_i - theta_j) for any
multiplicity-free M.  Nothing in the package calls it; it is the
reference route the tests hold the factors to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import linalg
from .errors import (
    AxiomViolation,
    IdempotentCheckFailed,
    RepeatedEigenvalue,
    SingularBasis,
)
from .exactfield import Rational


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
class SpectralFactors:
    """Primitive idempotents kept as rank-one factors: E_i = v[i] w[i]^T.

    v[i] is a right and w[i] a left eigenvector of the i-th eigenvalue,
    scaled so that w[i] . v[j] is 1 when i = j and 0 otherwise.
    """

    v: list
    w: list

    def transpose(self):
        """Factors of the transposed projections E_i^T = w_i v_i^T."""
        return SpectralFactors(self.w, self.v)

    def projections(self):
        """The dense matrices v_i w_i^T, formed only for the 3 x 3 boundary
        example (counterexample) and where tests compare them with the
        product formula."""
        zero = self.v[0][0] - self.v[0][0]
        return [[[x * y for y in w] if x else [zero] * len(w) for x in v]
                for v, w in zip(self.v, self.w)]


def certify_right_factors(mtx, eigs, vs):
    """Prove that each v_i is an eigenvector of mtx: M v_i = theta_i v_i.

    Checks that the eigs are distinct (RepeatedEigenvalue otherwise) and
    that there are n factors of length n for the n x n mtx, then, for each
    i in turn, M v_i = theta_i v_i row by row; the first residual that
    fails raises IdempotentCheckFailed, which names it.  Each residual runs
    over the vector's support only, O(n) per vector on a bidiagonal M.
    With V invertible, as the unit triangular shape that verify_axioms and
    _tridiagonal_band check makes it, V^-1 M V = diag(theta), so
    E_i = v_i (row i of V^-1) are the primitive idempotents of M.  No left
    factor is needed: a band V^-1 M' V is certified by M' V = V T.
    """
    _check_distinct(eigs)
    n = len(eigs)
    if not (len(mtx) == len(vs) == n and all(len(x) == n for x in (*mtx, *vs))):
        raise IdempotentCheckFailed(f"factors do not fit {n} eigenvalues")
    cols = [linalg.support(col) for col in zip(*mtx)]
    for i, (v, eig) in enumerate(zip(vs, eigs)):
        r = _first_residual(eig, v, cols)
        if r is not None:
            raise IdempotentCheckFailed(f"M v_{i} != theta_{i} v_{i} in row {r}")


def _first_residual(eig, vec, cols):
    """The smallest index r with (M vec)[r] != theta vec[r], or None.

    cols are the supports of M's columns.  Each vec[k] != 0 is scattered
    through column k, so M vec costs one product per nonzero of vec and
    per entry of its column, and each of its entries is summed before the
    one comparison with theta vec[r].
    """
    mv = [None] * len(vec)  # None: no term, so (M vec)[r] = 0
    for k, x in linalg.support(vec):
        for r, m in cols[k]:
            mv[r] = m * x if mv[r] is None else mv[r] + m * x
    return next((r for r, (y, x) in enumerate(zip(mv, vec))
                 if ((x and eig * x) if y is None else y != (eig * x if x else x))), None)


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
    j != i, one chain per projection scaled once, and is post-verified to
    square to itself.  This is the definition, kept as the tests'
    reference route; the package builds projections as SpectralFactors.
    """
    _check_distinct(eigs)
    out = []
    for i, ei in enumerate(eigs):
        prod, denom = linalg.identity(len(mtx), ctx), ctx.one
        for j, ej in enumerate(eigs):
            if j != i:
                prod = linalg.mat_mul(prod, linalg.shift(mtx, ej))
                denom = denom * (ei - ej)
        prod = linalg.mat_scale(ctx.one / denom, prod)
        if not linalg.mat_eq(linalg.mat_mul(prod, prod), prod):
            raise IdempotentCheckFailed(f"projection {i} is not idempotent")
        out.append(prod)
    return out


def _check_shape(rows, lo, hi, error, what, diag=None):
    """Check that rows[r][c] vanishes unless lo <= c - r <= hi and, where
    diag is given, that rows[r][r] is diag[r].

    (lo, hi) = (-1, 0) is a lower and (0, 1) an upper bidiagonal matrix.
    A factor family v_0..v_d, taken as rows, is unit upper triangular
    (v_j of support 0..j) for (-n, 0) and unit lower triangular (support
    j..d) for (0, n), each with diag all ones.  The first entry off the
    shape in row-major order raises error(what.format(r, c)).
    """
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x != diag[r] if c == r and diag is not None else x and not lo <= c - r <= hi:
                raise error(what.format(r, c))


def _off_diagonal(mtx, eigs, lower=False):
    """The superdiagonal of mtx, or its subdiagonal where lower, after
    checking that mtx is upper (lower) bidiagonal with eigs on its
    diagonal."""
    n = len(eigs)
    if len(mtx) != n:
        raise IdempotentCheckFailed(f"{len(mtx)} rows for {n} eigenvalues")
    _check_shape(mtx, *((-1, 0) if lower else (0, 1)), IdempotentCheckFailed,
                 f"M not {'lower' if lower else 'upper'} bidiagonal with diagonal theta"
                 " at ({0},{1})", eigs)
    return [mtx[r + 1][r] if lower else mtx[r][r + 1] for r in range(n - 1)]


def _right_eigenvector(off, eigs, i, ctx, lower=False):
    """v_i with M v_i = theta_i v_i and v_i[i] = 1, for the bidiagonal M
    with diagonal eigs: by back-substitution on the superdiagonal off of an
    upper bidiagonal M (support 0..i), by forward substitution on the
    subdiagonal off of a lower one (support i..d)."""
    v = [ctx.zero] * len(eigs)
    v[i] = ctx.one
    if lower:
        for r in range(i + 1, len(eigs)):
            v[r] = v[r - 1] * (off[r - 1] / (eigs[i] - eigs[r]))
    else:
        for r in range(i - 1, -1, -1):
            v[r] = v[r + 1] * (off[r] / (eigs[i] - eigs[r]))
    return v


def _right_eigenvectors(off, eigs, ctx, lower=False):
    """Every _right_eigenvector of the bidiagonal M, v_0 .. v_d.

    v_i divides by theta_i - theta_r for every r on the far side of i, so
    the family meets every pair of eigs as a divisor, and eigs that are
    not distinct end it with a zero division.  _check_distinct then names
    the first equal pair: the check costs nothing where eigs are distinct.
    """
    try:
        return [_right_eigenvector(off, eigs, i, ctx, lower) for i in range(len(eigs))]
    except ZeroDivisionError:
        _check_distinct(eigs)
        raise


def bidiagonal_right_factors(mtx, eigs, ctx, lower=False):
    """V, the right eigenvectors v_i of the upper bidiagonal mtx whose
    diagonal is eigs, or of the lower bidiagonal one where lower, each
    with v_i[i] = 1: unit upper triangular (v_i of support 0..i) or unit
    lower triangular (support i..d) as a family.  IdempotentCheckFailed
    names an entry off the shape (_off_diagonal), then RepeatedEigenvalue
    a pair of equal eigs (_right_eigenvectors)."""
    return _right_eigenvectors(_off_diagonal(mtx, eigs, lower), eigs, ctx, lower)


def bidiagonal_idempotents(mtx, eigs, ctx):
    """Spectral projections of an upper bidiagonal matrix whose diagonal is eigs.

    A diagonal matrix qualifies, and so does the transpose of a lower
    bidiagonal matrix such as the split A, whose projections are the
    transposes of the ones returned.  The right eigenvector v_i of eigs[i]
    comes from back-substitution and has support 0..i; the left
    eigenvector w_i, the right one of the lower bidiagonal transpose,
    comes from forward substitution and has support i..d.  With
    v_i[i] = w_i[i] = 1 their product w_i v_i is 1, so the projection is
    v_i w_i^T, returned as its factors.  For a triangular matrix the shape
    and diagonal checks are what verify the spectrum.  Each substitution
    step forms the ratio of small height first, so an entry costs one
    product with the full-height entry before it.  The analysis reads
    only right factors (bidiagonal_right_factors); this family is the
    boundary example's and the tests' reference route.
    """
    sup = _off_diagonal(mtx, eigs)
    return SpectralFactors(_right_eigenvectors(sup, eigs, ctx),
                           _right_eigenvectors(sup, eigs, ctx, lower=True))


def factor_superdiagonals(mtx, eigs):
    """(v_sup, w_sup) for the upper bidiagonal mtx: v_sup[i] = v_(i+1)[i]
    and w_sup[i] = w_i[i + 1], i < d, of bidiagonal_idempotents(mtx, eigs),
    with the same checks, and nothing else of the factors.

    That is all the a-trace reads of E*, in both modes.  Each is
    the first substitution step next to v_j[j] = w_j[j] = 1:
    w_i[i + 1] = sup[i] / (theta_i - theta_(i+1)) and
    v_(i+1)[i] = sup[i] / (theta_(i+1) - theta_i) = -w_i[i + 1].
    """
    sup = _off_diagonal(mtx, eigs)
    # Only neighbours meet as divisors here, so the eigs are checked whole.
    _check_distinct(eigs)
    w_sup = [x / (eigs[i] - eigs[i + 1]) for i, x in enumerate(sup)]
    return [-x for x in w_sup], w_sup


def intersection_a_trace(real, v_sup, w_sup):
    """a_i as the trace of E*_i A, which is the scalar w*_i . A v*_i.

    v_sup[i] = v*_(i+1)[i] and w_sup[i] = w*_i[i + 1] are the entries next
    to the diagonal of the right factors v*_i (support 0..i, v*_i[i] = 1)
    and the left factors w*_i (support i..d, w*_i[i] = 1).  The split A is
    lower bidiagonal, so A[r][c] meets w*_i[r] and v*_i[c] only at (i, i),
    (i, i - 1) and (i + 1, i), and no other entry of E* is read:
    a_i = theta_i + v*_i[i - 1] + w*_i[i + 1].  standard_basis_rep reads
    the diagonal of V*^-1 A V*, theta_i + v*_i[i - 1] - v*_(i+1)[i]: the
    routes differ only in w*_i[i + 1] against -v*_(i+1)[i], which agree
    because W* V* = I.
    """
    a = real.A
    out = [a[i][i] + w * a[i + 1][i] for i, w in enumerate(w_sup)] + [a[-1][-1]]
    return [x + a[i][i - 1] * v_sup[i - 1] if i else x for i, x in enumerate(out)]


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


def _bidiagonal_band(mtx, vs, off_band):
    """The band of S = V^-1 M V for a lower bidiagonal M and a unit upper
    triangular V, certified to be all of S; returns t_ij by (i, j).

    With d_r = M[r][r] and s_r = M[r][r - 1], column j of M V = V T reads
    d_r v_j[r] + s_r v_j[r - 1] in row r.  Rows j + 1, j and j - 1 fix
    t_(j+1)j = s_(j+1) v_j[j] = s_(j+1), t_jj = d_j + s_j v_j[j - 1]
    - t_(j+1)j v_(j+1)[j] and t_(j-1)j = (d_(j-1) - t_jj) v_j[j - 1]
    + s_(j-1) v_j[j - 2] - t_(j+1)j v_(j+1)[j - 1]; rows below j + 1
    vanish on both sides.  Each row r <= j - 2 must then satisfy
    (d_r - t_jj) v_j[r] + s_r v_j[r - 1] - t_(j+1)j v_(j+1)[r]
    = t_(j-1)j v_(j-1)[r], two products per entry when every s_r is 1,
    whose products are skipped, and four otherwise.  Those rows together
    are M V = V T, so with V invertible they certify V^-1 M V = T.  The
    residual of row r is the sum of S[k][j] v_k[r] over r <= k <= j - 2,
    so the first nonzero one met from r = j - 2 down is S[r][j] itself:
    off_band(r, j, S[r][j]) gives the error raised.
    """
    n = len(vs)
    unit = all(mtx[r][r - 1] == 1 for r in range(1, n))

    def times_sub(r, x):
        return x if unit else mtx[r][r - 1] * x

    band = {}
    for j, v in enumerate(vs):
        nxt = vs[j + 1] if j + 1 < n else None
        t = mtx[j][j] + times_sub(j, v[j - 1]) if j else mtx[j][j]
        if nxt is not None:
            t = t - times_sub(j + 1, nxt[j])
            band[j + 1, j] = times_sub(j + 1, v[j])
        band[j, j] = t
        for r in range(j - 1, -1, -1):
            x = (mtx[r][r] - t) * v[r]
            if r:
                x = x + times_sub(r, v[r - 1])
            if nxt is not None:
                x = x - times_sub(j + 1, nxt[r])
            if r == j - 1:
                up = band[j - 1, j] = x
            elif x != up * vs[j - 1][r]:
                raise off_band(r, j, x - up * vs[j - 1][r])
    return band


@dataclass
class _TauStar:
    """U[r][j] = L^r tau*_r(theta*_j) for an array over Q with no zero phi_i.

    tau*_r(x) = prod_(k<r) (x - theta*_k), and L is the lcm of the
    denominators of theta*.  With N_k = L theta*_k, cleared as
    linalg.integer_rows clears a row, U[r][j] = prod_(k<r) (N_j - N_k) is an
    int, zero for r > j; cols[j] holds U[0..j][j].  Back-substitution in
    A* gives v*_j[r] = (Phi_j / Phi_r) tau*_r(theta*_j) / tau*_j(theta*_j)
    with Phi_r = phi_1 ... phi_r (Terwilliger, LAA 330 (2001)), so
    V* = P^-1 U C with P = diag(Phi_r L^r) and C = diag(C_j),
    C_j = Phi_j L^j / U[j][j].  Hence A V* = V* T is A' U = U T' with
    A' = P A P^-1 and T' = C T C^-1, and the certificate runs on U's ints.
    """

    cols: list
    lcm: int
    phi: list

    @classmethod
    def of(cls, arr):
        """The U of arr, or None off Q or where a phi_i is 0 (P singular)."""
        cleared = linalg.integer_rows([arr.theta_star])
        if cleared is None or not all(arr.phi1):
            return None
        (ts,), (lcm,) = cleared
        cols = []
        for j, t in enumerate(ts):
            col = [1]
            for k in ts[:j]:
                col.append(col[-1] * (t - k))
            cols.append(col)
        return cls(cols, lcm, arr.phi1)

    def scale(self, i):
        """C_i = Phi_i L^i / U[i][i], formed for failure values only."""
        return math.prod(self.phi[:i], start=Rational(self.lcm ** i, self.cols[i][i]))

    def ties(self, vs):
        """Whether vs is V* = P^-1 U C entry for entry, that is
        v*_j[r] Phi_r L^r U[j][j] = Phi_j L^j U[r][j] for every r < j (the
        unit diagonal and the zeros below it are checked before).  With
        phi_k = p_k / m cleared as integer_rows clears a row, and the
        factors common to both sides divided out, it is the identity of ints
        v*_j[r] m^(j-r) U[j][j] = L^(j-r) p_(r+1) ... p_j U[r][j], whose two
        factors grow along the column from r = j - 1 down."""
        (ph,), (m,) = linalg.integer_rows([self.phi])
        for v, col in zip(vs, self.cols):
            y, z = col[-1], 1
            for r in range(len(col) - 2, -1, -1):
                y *= m
                z *= ph[r] * self.lcm
                if v[r].numerator * y != v[r].denominator * z * col[r]:
                    return False
        return True

    def band(self, mtx):
        """The band of T' = C T C^-1, T = V*^-1 A V* for the lower bidiagonal
        A = mtx, certified to be all of T' by A' U = U T' on ints; returns
        t'_ij by (i, j).

        A' has the diagonal theta_r = A[r][r] and the subdiagonal
        L phi_r A[r][r - 1]; e clears both, as integer_rows clears a row.
        Column j of A' U = U T' reads (A' U)[r][j] = sum_i U[r][i] t'_ij in
        row r.  Rows j + 1, j and j - 1 each add one unknown, t'_rj over
        U[r][r], found in that order as a Rational; the entries found are
        kept over their common denominator k as g_i = k t'_ij.  Each row
        r <= j - 2 must then satisfy k e (A' U)[r][j] = e sum_i U[r][i] g_i,
        an identity of ints.  Those rows together are A' U = U T', so with
        U invertible they certify U^-1 A' U = T'.  The residual of row r is
        k e sum_i U[r][i] S'_ij over r <= i <= j - 2, so the first nonzero
        one met from r = j - 2 down is k e U[r][r] S'_rj, and SingularBasis
        names S_rj = S'_rj C_j / C_r, the entry of V*^-1 A V*.
        """
        n = len(self.cols)
        (th, sub, ph), (e_th, e_sub, e_ph) = linalg.integer_rows(
            [[mtx[r][r] for r in range(n)], [mtx[r][r - 1] for r in range(1, n)], self.phi])
        e = e_th * e_sub * e_ph
        diag = [x * e_sub * e_ph for x in th]
        low = [0] + [x * y * self.lcm * e_th for x, y in zip(sub, ph)]  # none in row 0
        cols = self.cols
        band = {}
        for j, col in enumerate(cols):
            k, g = 1, {}
            for r in range(min(j + 1, n - 1), max(j - 2, -1), -1):
                x = (diag[r] * col[r] if r <= j else 0) + low[r] * col[r - 1]
                x = k * x - e * sum(cols[i][r] * y for i, y in g.items())
                t = band[r, j] = Rational(x, k * e * cols[r][r])
                m = math.lcm(k, t.denominator)
                g = {i: y * (m // k) for i, y in g.items()}
                g[r], k = t.numerator * (m // t.denominator), m
            up, mid, down = (e * g.get(i, 0) for i in (j + 1, j, j - 1))
            for r in range(j - 2, -1, -1):
                x = (k * diag[r] - mid) * col[r] - down * cols[j - 1][r]
                if r:
                    x += k * low[r] * col[r - 1]
                if up:
                    x -= up * cols[j + 1][r]
                if x:
                    s = _unscaled(self.scale, Rational(x, k * e * cols[r][r]), r, j)
                    raise SingularBasis(f"A not tridiagonal at ({r},{j}): {s}")
        return band


def _unscaled(c, x, i, j=None):
    """An entry x of T' at (i, j), or of D' = C D at i, as the same entry
    of T or of D: x C_j / C_i or x / C_i, with C_i = c(i); x itself when c
    is None."""
    if c is None:
        return x
    x = x / c(i)
    return x if j is None else x * c(j)


def _tridiagonal_band(mtx, vs, u=None):
    """The band |i - j| <= 1 of S = W* A V* = V*^-1 A V*, certified to be
    all of S without reading W*: W* V* = I is not assumed.  Returns (band,
    c): the band of S, t_ij by (i, j), and c None; or, on the _TauStar u,
    the band of C S C^-1 and c = u.scale.

    A must be lower bidiagonal, as the split A is (any subdiagonal), and
    V*, where given, unit upper triangular, as bidiagonal_right_factors
    gives it for an upper bidiagonal matrix; SingularBasis names the first
    entry off either shape before any band is read.  u is used when vs is
    None, or when u.ties(vs) shows that vs is its V*; the band is
    otherwise read off vs's columns (_bidiagonal_band).  A nonzero S[i][j]
    off the band raises SingularBasis "A not tridiagonal at (i,j): S_ij"
    on either route.
    """
    n = len(mtx)
    if vs is not None:
        _check_shape(vs, -n, 0, SingularBasis,
                     "v*_{0} is not unit upper triangular at entry {1}", [1] * n)
    _check_shape(mtx, -1, 0, SingularBasis, "A not lower bidiagonal at ({0},{1})")
    if u is not None and (vs is None or u.ties(vs)):
        return u.band(mtx), u.scale
    return _bidiagonal_band(
        mtx, vs, lambda i, j, x: SingularBasis(f"A not tridiagonal at ({i},{j}): {x}")), None


def _standard_scale(band, d, theta0, one, c=None):
    """D with (T - theta_0 I) D = 0 and D_0 = 1, for the band T of W* A V*.

    Rows 0..d - 1 of T give D_1..D_d by the three-term recurrence, one
    division by t_(i,i+1) each, which must be nonzero.  Each D_i must be
    nonzero and row d must then vanish; SingularBasis names the first zero
    "E*_i u vanishes: D_i = 0" or the residual
    "(T - theta_0 I) D != 0 in row d: r" otherwise.  On the band of
    T' = C T C^-1, with c(i) = C_i, the same recurrence gives D' = C D, as
    C_0 = 1, and the values named are D_i = D'_i / C_i and the residual of
    T over C_d.
    """
    scale = [one]
    for i in range(d + 1):
        x = (band[i, i] - theta0) * scale[i]
        if i:
            x = x + band[i, i - 1] * scale[i - 1]
        if i == d and x:
            raise SingularBasis(f"(T - theta_0 I) D != 0 in row {d}: {_unscaled(c, x, d)}")
        if i < d:
            scale.append(-x / band[i, i + 1])
            if not scale[-1]:
                raise SingularBasis(
                    f"E*_{i + 1} u vanishes: D_{i + 1} = {_unscaled(c, scale[-1], i + 1)}")
    return scale


def standard_basis_rep(real, vs=None):
    """Change basis to {E*_i u}, with u the theta_0-eigenvector of A.

    vs, where given, are the right factors v*_i of E*, of the upper
    bidiagonal A*; None stands for those of the split A* of real.array.
    E*_i u is v*_i scaled by D_i = w*_i . u, so A_std = D^-1 T D with
    T = W* A V*, and A*_std = diag(theta*).  Over Q with no zero phi_i
    the band comes from the integer matrix U of _TauStar as the band of
    T' = C T C^-1, certified by A' U = U T'; a given V* is used there only
    where it ties to U entry for entry, as deep mode's certified V* does.
    Otherwise the band comes from V*, built by back-substitution where not
    given, certified by A V* = V* T (_tridiagonal_band).  An A that is
    not lower bidiagonal, or a V* that is not unit upper triangular, is
    refused, and an entry of T off the band is named with its value
    (SingularBasis either way).  D needs
    neither W* nor u: as A u = theta_0 u, D = W* u is the
    theta_0-eigenvector of T, which is the row-sum identity
    c_i + a_i + b_i = theta_0 of the standard basis (Terwilliger, LAA 330
    (2001)).  _standard_scale solves (T - theta_0 I) D = 0 from D_0 = 1 in
    O(n), with theta_0 = A[0][0], the eigenvalue of the lower bidiagonal A
    that u belongs to, and A_std does not change under D -> lambda D.  On
    T' it gives D' = C D, and A_std = D'^-1 T' D', so C is never formed.
    A zero t_ij next to the diagonal (b_i or c_j would vanish), a residual
    in row d and a zero D_i (E*_i u = 0) each raise SingularBasis, which
    names the entry and its value, of T and D: on T' they are converted,
    on the failure path only.  Returns the realization together with the
    intersection numbers read off A_std.
    """
    arr = real.array
    n = real.dim
    zero = arr.field.zero
    u = _TauStar.of(arr)
    if u is None and vs is None:
        vs = [_right_eigenvector(arr.phi1, arr.theta_star, j, arr.field) for j in range(n)]
    band, c = _tridiagonal_band(real.A, vs, u)
    gap = min(((i, j) for (i, j), x in band.items() if i != j and not x), default=None)
    if gap:
        raise SingularBasis(f"off-diagonal intersection numbers must be nonzero: "
                            f"T at ({gap[0]},{gap[1]}) is {_unscaled(c, band[gap], *gap)}")
    scale = _standard_scale(band, arr.d, real.A[0][0], arr.field.one, c)
    a_std = [[zero] * n for _ in range(n)]
    for (i, j), x in band.items():
        a_std[i][j] = x if i == j else x * scale[j] / scale[i]
    a_star_std = [[t if i == j else zero for j in range(n)]
                  for i, t in enumerate(arr.theta_star)]
    a = [a_std[i][i] for i in range(arr.d + 1)]
    b = [a_std[i][i + 1] for i in range(arr.d)]
    c = [a_std[i + 1][i] for i in range(arr.d)]
    return Realization(arr, a_std, a_star_std, Basis.STANDARD), IntersectionNumbers(a, b, c)


def verify_axioms(real, vs):
    """Check the tridiagonal-vanishing pattern of E A* E from V, the right
    factors vs of E.

    E_i A* E_j must vanish exactly when |i-j| > 1 and be nonzero when
    |i-j| = 1.  The v_j are eigenvectors of A, as certify_right_factors
    proves, and V is unit lower triangular, as checked here, so
    E_j = v_j w_j^T with w_j row j of W = V^-1 and E_i A* E_j is
    (V^-1 A* V)_ij v_i w_j^T: no W is formed.  A* must be upper
    bidiagonal and V unit lower triangular, as in the split realization;
    IdempotentCheckFailed names the first entry off either shape.  With P
    the reversal of rows and columns, P A* P is lower bidiagonal, P V P
    unit upper triangular and their band is P (V^-1 A* V) P, so
    _bidiagonal_band certifies that matrix tridiagonal from V alone, in
    O(n^2), or names an entry off the band: AxiomViolation
    "E A* E at (i,j) expected zero, got S_ij".  Then
    the first zero entry next to the diagonal, in row-major order, raises
    "expected nonzero".  The dual pattern E*_i A E*_j is the band of
    W* A V*, which standard_basis_rep certifies: zero off the band by
    A V* = V* T (SingularBasis names the entry), b and c nonzero, and its
    diagonal is the a that the analysis compares with the closed form.
    """
    a_star, n = real.A_star, real.dim
    d = n - 1
    _check_shape(a_star, 0, 1, IdempotentCheckFailed, "A* not upper bidiagonal at ({0},{1})")
    _check_shape(vs, 0, n, IdempotentCheckFailed,
                 "v_{0} is not unit lower triangular at entry {1}", [1] * n)
    band = _bidiagonal_band(
        [row[::-1] for row in reversed(a_star)], [v[::-1] for v in reversed(vs)],
        lambda i, j, x: AxiomViolation("E A* E", d - i, d - j, f"expected zero, got {x}"))
    zeros = [(d - i, d - j) for (i, j), x in band.items() if i != j and not x]
    if zeros:
        raise AxiomViolation("E A* E", *min(zeros), "expected nonzero")
    return True
