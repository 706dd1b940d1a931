"""Matrix realizations of a parameter array.

realize_split produces the defining bidiagonal pair: A lower bidiagonal
with eigenvalue diagonal and unit subdiagonal, A* upper bidiagonal with
dual eigenvalue diagonal and the first split sequence on the
superdiagonal.  The analysis keeps the primitive idempotents as rank-one
factors E_i = v_i w_i^T (SpectralFactors), found by substitution in
O(n^2) each: bidiagonal_idempotents takes an upper bidiagonal or diagonal
matrix such as A* directly, and A through its transpose.  As
w_i v_j = [i = j], E_i M E_j = (w_i M v_j) v_i w_j^T, so the a-trace, the
change to the standard basis {E*_i u} and both tridiagonal axioms read
scalars of W M V.  The fast analysis forms no factor of E and of W* only
the entries w*_i[i + 1] that the a-trace meets (bidiagonal_right_factors);
deep mode builds and certifies both families whole.  The rest reads bands
of W M V = V^-1 M V, as follows.

Two O(n^2) certificates stand in for dense products.
SpectralFactors.certify proves that a family of factors is the spectral
decomposition of its matrix by the defining identities M v_i = theta_i v_i,
w_i M = theta_i w_i and w_i v_i = 1.  _bidiagonal_band reads the band T of
S = V^-1 M V off V's columns for a lower bidiagonal M and a unit upper
triangular V, certified by M V = V T; where the certificate fails, it
names an entry of S off the band and its value.  Both tridiagonal axioms
are read this way, from V alone, and no n x n product of factors is
formed.  The E* A E* pattern is the band T of W* A V* = V*^-1 A V* for
the lower bidiagonal A (_tridiagonal_band); it also gives the standard
basis.  The scale D_i = w*_i . u of E*_i u = D_i v*_i comes from T too:
as A u = theta_0 u, D = W* u is the theta_0-eigenvector of T, the row-sum
identity c_i + a_i + b_i = theta_0 of the standard basis, and a
three-term recurrence gives it in O(n) (_standard_scale).
The E A* E pattern is the band of W A* V = V^-1 A* V (verify_axioms), on
the image of A* and V with rows and columns in reverse order, where A* is
lower bidiagonal and V unit upper triangular.  Other shapes are refused:
_check_shape names the first entry of a matrix or factor family that is
off its bidiagonal or unit triangular shape.  The a-trace reads (i, i),
(i, i - 1) and (i + 1, i) of the split A,
a_i = theta_i + v*_i[i - 1] + w*_i[i + 1], and the band
t_ii = theta_i + v*_i[i - 1] - v*_(i+1)[i]: the two a-routes share
theta_i + v*_i[i - 1] and differ in w*_i[i + 1] against -v*_(i+1)[i],
equal only because W* V* = I.  The spectral product
formula, post-verified, works for any multiplicity-free matrix and is the
reference route of the tests and of the boundary example
(counterexample); the analysis does not call it.  As the shifts
M - theta_j I commute, primitive_idempotents forms the product over
j != i as P_i S_i from prefix products P_i (j < i) and suffix products
S_i (j > i) built once, about 3n matrix products per family.
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
        """The dense matrices v_i w_i^T, formed only where tests compare them
        with the product formula."""
        zero = self.v[0][0] - self.v[0][0]
        return [[[x * y for y in w] if x else [zero] * len(w) for x in v]
                for v, w in zip(self.v, self.w)]

    def certify(self, mtx, eigs):
        """Prove that the E_i = v_i w_i^T are the primitive idempotents of mtx.

        Checks that the eigs are distinct (RepeatedEigenvalue otherwise) and
        that there are n factor pairs of length n for the n x n mtx, then,
        for each i in turn, M v_i = theta_i v_i row by row,
        w_i M = theta_i w_i column by column, and w_i . v_i = 1; the first
        residual that fails raises IdempotentCheckFailed, which names it.
        Each residual runs over the vector's support only, O(n) per vector
        on a bidiagonal M.  No w_i . v_j with i != j is needed:
        (theta_i - theta_j) w_i . v_j = w_i M v_j - w_i M v_j = 0.  So
        W V = I, hence V W = I = sum E_i, E_i E_j = [i = j] E_i and
        M E_i = theta_i E_i, which fix the primitive idempotents.
        """
        _check_distinct(eigs)
        n = len(eigs)
        if not (len(mtx) == len(self.v) == len(self.w) == n
                and all(len(x) == n for x in (*mtx, *self.v, *self.w))):
            raise IdempotentCheckFailed(f"factors do not fit {n} eigenvalues")
        rows = [linalg.support(row) for row in mtx]
        cols = [linalg.support(col) for col in zip(*mtx)]
        for i, (v, w, eig) in enumerate(zip(self.v, self.w, eigs)):
            r = _first_residual(eig, v, cols)
            if r is not None:
                raise IdempotentCheckFailed(f"M v_{i} != theta_{i} v_{i} in row {r}")
            c = _first_residual(eig, w, rows)
            if c is not None:
                raise IdempotentCheckFailed(f"w_{i} M != theta_{i} w_{i} in column {c}")
            if linalg.dot(w, v) != 1:
                raise IdempotentCheckFailed(f"w_{i} . v_{i} != 1")


def _first_residual(eig, vec, lines):
    """The smallest index r with (M vec)[r] != theta vec[r], or None.

    lines are the supports of M's columns, for M v, or of its rows, for
    w M.  Each vec[k] != 0 is scattered through line k, so M vec costs one
    product per nonzero of vec and per entry of its line, and each of its
    entries is summed before the one comparison with theta vec[r].
    """
    mv = [None] * len(vec)  # None: no term, so (M vec)[r] = 0
    for k, x in linalg.support(vec):
        for r, m in lines[k]:
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
    j != i, and is post-verified to square to itself.  The product is
    P_i S_i, with the prefix P_i over j < i and the suffix S_i over j > i
    each built once for all i, so a family takes 3n - 6 products and n
    squarings instead of n(n - 2) chain products.
    """
    _check_distinct(eigs)
    n = len(eigs)
    if n < 2:
        return [linalg.identity(len(mtx), ctx) for _ in eigs]
    shifts = [linalg.shift(mtx, ej) for ej in eigs]
    prefix = [None, shifts[0]]  # prefix[i] = shifts[0] ... shifts[i-1]
    for j in range(1, n - 1):
        prefix.append(linalg.mat_mul(prefix[-1], shifts[j]))
    suffix = [None] * n  # suffix[i] = shifts[i+1] ... shifts[n-1]
    suffix[n - 2] = shifts[n - 1]
    for j in range(n - 3, -1, -1):
        suffix[j] = linalg.mat_mul(shifts[j + 1], suffix[j + 1])
    out = []
    for i, ei in enumerate(eigs):
        if i == 0:
            prod = suffix[0]
        elif i == n - 1:
            prod = prefix[n - 1]
        else:
            prod = linalg.mat_mul(prefix[i], suffix[i])
        denom = ctx.one
        for j, ej in enumerate(eigs):
            if j != i:
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


def _superdiagonal(mtx, eigs):
    """The superdiagonal of mtx, after checking that mtx is upper bidiagonal
    with the distinct eigs on its diagonal."""
    _check_distinct(eigs)
    n = len(eigs)
    if len(mtx) != n:
        raise IdempotentCheckFailed(f"{len(mtx)} rows for {n} eigenvalues")
    _check_shape(mtx, 0, 1, IdempotentCheckFailed,
                 "M not upper bidiagonal with diagonal theta at ({0},{1})", eigs)
    return [mtx[r][r + 1] for r in range(n - 1)]


def _left_eigenvector(sup, eigs, i, ctx):
    """w_i by forward substitution: w_i[i] = 1, support i..d."""
    w = [ctx.zero] * len(eigs)
    w[i] = ctx.one
    for c in range(i + 1, len(eigs)):
        w[c] = w[c - 1] * (sup[c - 1] / (eigs[i] - eigs[c]))
    return w


def bidiagonal_right_factors(mtx, eigs, ctx):
    """(V, w_next) for the upper bidiagonal mtx: the right factors v_i of
    bidiagonal_idempotents(mtx, eigs, ctx), with the same checks, and of
    the left factors only w_next[i] = w_i[i + 1], i < d.

    That is all the fast analysis reads of E*: the standard basis reads V*
    and the a-trace w*_i[i + 1] next to w*_i[i] = 1.  The first forward
    substitution step gives w_i[i + 1] = sup[i] / (theta_i - theta_(i+1)).
    """
    sup = _superdiagonal(mtx, eigs)
    vs = []
    for i, eig in enumerate(eigs):
        v = [ctx.zero] * len(eigs)
        v[i] = ctx.one
        for r in range(i - 1, -1, -1):
            v[r] = v[r + 1] * (sup[r] / (eig - eigs[r]))
        vs.append(v)
    return vs, [x / (eigs[i] - eigs[i + 1]) for i, x in enumerate(sup)]


def bidiagonal_idempotents(mtx, eigs, ctx):
    """Spectral projections of an upper bidiagonal matrix whose diagonal is eigs.

    A diagonal matrix qualifies, and so does the transpose of a lower
    bidiagonal matrix such as the split A, whose projections are the
    transposes of the ones returned.  The right eigenvector v_i of eigs[i]
    comes from back-substitution and has support 0..i; the left
    eigenvector w_i comes from forward substitution and has support i..d.
    With v_i[i] = w_i[i] = 1 their product w_i v_i is 1, so the
    projection is v_i w_i^T, returned as its factors.  For a triangular
    matrix the shape and diagonal checks are what verify the spectrum.
    Each substitution step forms the ratio of small height first, so an
    entry costs one product with the full-height entry before it.
    """
    vs, _ = bidiagonal_right_factors(mtx, eigs, ctx)
    sup = [mtx[r][r + 1] for r in range(len(vs) - 1)]
    return SpectralFactors(vs, [_left_eigenvector(sup, eigs, i, ctx) for i in range(len(vs))])


def intersection_a_trace(real, vs, w_next):
    """a_i as the trace of E*_i A, which is the scalar w*_i . A v*_i.

    vs are the right factors v*_i (support 0..i, v*_i[i] = 1) and w_next[i]
    is w*_i[i + 1] of the left factors (support i..d, w*_i[i] = 1).  The
    split A is lower bidiagonal, so A[r][c] meets w*_i[r] and v*_i[c] only
    at (i, i), (i, i - 1) and (i + 1, i), and no other entry of W* is read:
    a_i = theta_i + v*_i[i - 1] + w*_i[i + 1].  standard_basis_rep reads
    theta_i + v*_i[i - 1] - v*_(i+1)[i]: the routes differ only in
    w*_i[i + 1] against -v*_(i+1)[i], which agree because W* V* = I.
    """
    a = real.A
    out = [a[i][i] + w * a[i + 1][i] for i, w in enumerate(w_next)] + [a[-1][-1]]
    return [x + a[i][i - 1] * vs[i][i - 1] if i else x for i, x in enumerate(out)]


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


def _tridiagonal_band(mtx, vs):
    """The band |i - j| <= 1 of S = W* A V* = V*^-1 A V*, certified to be
    all of S, from V* alone: no W* is read, and W* V* = I is not assumed.

    A must be lower bidiagonal, as the split A is (any subdiagonal), and
    V* unit upper triangular, as bidiagonal_idempotents gives it for an
    upper bidiagonal matrix; SingularBasis names the first entry off
    either shape before any band is read.  A nonzero S[i][j] off the band
    raises SingularBasis "A not tridiagonal at (i,j): S_ij".  Returns t_ij
    by (i, j).
    """
    n = len(mtx)
    _check_shape(vs, -n, 0, SingularBasis,
                 "v*_{0} is not unit upper triangular at entry {1}", [1] * n)
    _check_shape(mtx, -1, 0, SingularBasis, "A not lower bidiagonal at ({0},{1})")
    return _bidiagonal_band(
        mtx, vs, lambda i, j, x: SingularBasis(f"A not tridiagonal at ({i},{j}): {x}"))


def _standard_scale(band, d, theta0, one):
    """D with (T - theta_0 I) D = 0 and D_0 = 1, for the band T of W* A V*.

    Rows 0..d - 1 of T give D_1..D_d by the three-term recurrence, one
    division by t_(i,i+1) each, which must be nonzero.  Each D_i must be
    nonzero and row d must then vanish; SingularBasis names the first zero
    "E*_i u vanishes: D_i = 0" or the residual
    "(T - theta_0 I) D != 0 in row d: r" otherwise.
    """
    scale = [one]
    for i in range(d + 1):
        x = (band[i, i] - theta0) * scale[i]
        if i:
            x = x + band[i, i - 1] * scale[i - 1]
        if i == d and x:
            raise SingularBasis(f"(T - theta_0 I) D != 0 in row {d}: {x}")
        if i < d:
            scale.append(-x / band[i, i + 1])
            if not scale[-1]:
                raise SingularBasis(f"E*_{i + 1} u vanishes: D_{i + 1} = {scale[-1]}")
    return scale


def standard_basis_rep(real, vs):
    """Change basis to {E*_i u}, with u the theta_0-eigenvector of A.

    vs are the right factors v*_i of E*, of the upper bidiagonal A*.
    E*_i u is v*_i scaled by D_i = w*_i . u, so A_std = D^-1 T D with
    T = W* A V*, and A*_std = diag(theta*).  The band of T comes from
    _tridiagonal_band, from V* alone, with its O(n^2) certificate
    A V* = V* T; an A that is not lower bidiagonal, or a V* that is not
    unit upper triangular, is refused, and an entry of T off the band is
    named with its value (SingularBasis either way).  D needs neither W*
    nor u: as A u = theta_0 u, D = W* u is the theta_0-eigenvector of T,
    which is the row-sum identity c_i + a_i + b_i = theta_0 of the
    standard basis (Terwilliger, LAA 330 (2001)).  _standard_scale solves
    (T - theta_0 I) D = 0 from D_0 = 1 in O(n), with theta_0 = A[0][0],
    the eigenvalue of the lower bidiagonal A that u belongs to, and A_std
    does not change under D -> lambda D.  A zero t_ij next to the diagonal
    (b_i or c_j would vanish), a residual in row d and a zero D_i
    (E*_i u = 0) each raise SingularBasis, which names the entry and its
    value.  Returns the realization together with the intersection numbers
    read off A_std.
    """
    arr = real.array
    n = real.dim
    zero = arr.field.zero
    band = _tridiagonal_band(real.A, vs)
    gap = min(((i, j) for (i, j), x in band.items() if i != j and not x), default=None)
    if gap:
        raise SingularBasis(f"off-diagonal intersection numbers must be nonzero: "
                            f"T at ({gap[0]},{gap[1]}) is {band[gap]}")
    scale = _standard_scale(band, arr.d, real.A[0][0], arr.field.one)
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
    |i-j| = 1.  With the projections as rank-one factors whose W inverts V,
    as SpectralFactors.certify proves, E_i A* E_j is (w_i A* v_j) v_i w_j^T
    and W A* V = V^-1 A* V, so no W is read.  A* must be upper bidiagonal
    and V unit lower triangular, as in the split realization;
    IdempotentCheckFailed names the first entry off either shape.  With P
    the reversal of rows and columns, P A* P is lower bidiagonal, P V P
    unit upper triangular and their band is P (V^-1 A* V) P, so
    _bidiagonal_band certifies that
    matrix tridiagonal from V alone, in O(n^2), or names an entry off the
    band: AxiomViolation "E A* E at (i,j) expected zero, got S_ij".  Then
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
