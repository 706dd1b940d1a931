"""Exact linear algebra over a field context.

Matrices are plain lists of row lists whose entries all live in one field
context.  One forward elimination, _eliminate, underlies rank, rref, the
null spaces, solve and the determinant.  Its pivot is the first nonzero
entry of the column from the current row down, and it has two exact
routes.

Over Q (entries exactfield.Rational or Python ints) the rows are scaled
by the lcm of their denominators (integer_rows) and eliminated
fraction-free on Python ints (Bareiss, Math. Comp. 22 (1968) 565-578):
row_i <- (p row_i - row_i[c] row_r) // prev, where p is the pivot and
prev the pivot before it.  Every entry stays a minor of the scaled input,
so each division is exact and no gcd is taken.  Each row is a nonzero
multiple of the one the field route gives, so the pivot columns and the
swaps are the same; the determinant is the last pivot over the product
of the row scales.  rref turns the pivot rows into Rationals and runs
the field route's back-substitution on them; the rref is unique, so it
does not depend on which nonzero multiple of a row it starts from.
mat_mul over Q scales the rows of a and the columns
of b the same way: row r of a is A_r / s_r and column j of b is
B_j / c_j, so the entry (a b)_rj is the integer dot product A_r . B_j
over s_r c_j.  The sum is exact and the Rational that exactfield.ratio
builds from it is normalised, so it is the value the field route's sum
of products gives.
A column of b, not a row, carries the scale, as the columns of the
moment matrix M hold one index's values each: a common denominator of
b's rows would hold every index's, and its height grows with n.  Over a
finite field there is no height growth, and a wrapper element would pay
two products per entry, so the elimination divides in the field and the
product multiplies in it.

The matrices are mostly zeros (bidiagonal, tridiagonal, diagonal, or
triangular eigenvector factors), so the kernels over field elements skip
structural zeros: a row update, a product term or a dot product runs only
over the support of the row it reads, the (index, value) pairs of its
nonzero entries, and a sum starts from its first nonzero term instead of
adding it to zero.  The elementwise mat_sub and mat_scale keep an
operand where the other is zero.  As x - f*0 = x, x + 0*y = x,
0 + y = y, x - 0 = x and c*0 = 0 exactly, every result is the value the
dense loop gives.
"""

from __future__ import annotations

import math

from .errors import SingularMatrix
from .exactfield import ratio


def identity(n, ctx):
    z, o = ctx.zero, ctx.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_sub(a, b):
    """A - B, with x - 0 = x taken without arithmetic."""
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    """c A, with c * 0 = 0 taken without arithmetic."""
    return [[c * x if x else x for x in row] for row in a]


def mat_mul(a, b):
    """Matrix product over the nonzero entries of a and the row supports of b.

    Over Q it runs on ints: integer_rows scales row r of a by s_r and
    column j of b by c_j, and (a b)_rj is the integer dot product of the
    two over s_r c_j, one Rational per entry.
    """
    m = len(b[0])
    scaled_a = integer_rows(a)
    scaled_b = None if scaled_a is None else integer_rows(transpose(b))
    if scaled_b is not None:
        (int_a, s), (int_cols, c) = scaled_a, scaled_b
        b_supports = [support(row) for row in zip(*int_cols)]
        out = []
        for row_a, sr in zip(int_a, s):
            acc = [0] * m
            for x, sup in zip(row_a, b_supports):
                if x:
                    for j, y in sup:
                        acc[j] += x * y
            out.append([ratio(v, sr * cj) for v, cj in zip(acc, c)])
        return out
    zero = a[0][0] - a[0][0]
    b_supports = [support(row) for row in b]
    out = []
    for row_a in a:
        row_out = [zero] * m
        for x, sup in zip(row_a, b_supports):
            if x:
                for j, y in sup:
                    s = row_out[j]
                    row_out[j] = x * y if s is zero else s + x * y
        out.append(row_out)
    return out


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def shift(m, c):
    """M - c I, as a copy."""
    out = [row[:] for row in m]
    for i in range(len(out)):
        out[i][i] = out[i][i] - c
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def flatten(a):
    return [x for row in a for x in row]


def support(v, start=0):
    """The nonzero entries of v from index start on, as (index, value) pairs."""
    return [(k, v[k]) for k in range(start, len(v)) if v[k]]


def integer_rows(rows):
    """Each row times the lcm of its denominators, as Python ints, and the
    list of those scales; None when an entry has no denominator (a
    finite-field element).  A nonzero scale keeps a row's zero pattern and
    span and every test x_i y_j == x_j y_i between two rows."""
    out, scales = [], []
    for row in rows:
        try:
            dens = [x.denominator for x in row]
        except AttributeError:
            return None
        s = math.lcm(*dens)
        out.append([x.numerator * (s // q) for x, q in zip(row, dens)])
        scales.append(s)
    return out, scales


def _eliminate(rows):
    """The one forward elimination: an echelon form of rows, its pivot
    columns, its row-swap count and its row scales.

    Rational rows are scaled to integer rows (integer_rows gives the
    scales) and eliminated fraction-free, row_i <- (p row_i - x row_r) //
    prev; a row with x = 0 in the pivot column is still scaled by
    p // prev, so that every entry stays a minor and the next division is
    exact.  Other rows are eliminated by field division and get scales
    None.  Either way each row is a nonzero multiple of the other route's,
    so the pivot columns and the swaps agree.
    """
    scaled = integer_rows(rows)
    m = [row[:] for row in rows] if scaled is None else scaled[0]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    swaps = 0
    r = 0
    prev = 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        row_r = m[r]
        p = row_r[c]
        if scaled is None:
            sup = support(row_r, c)
            for row_i in m[r + 1:]:
                if row_i[c]:
                    f = row_i[c] / p
                    for j, y in sup:
                        row_i[j] = row_i[j] - f * y
        else:
            tail = row_r[c + 1:]
            for row_i in m[r + 1:]:
                x, row_i[c] = row_i[c], 0
                if x:
                    row_i[c + 1:] = [(p * y - x * z) // prev for y, z in zip(row_i[c + 1:], tail)]
                elif p != prev:
                    row_i[c + 1:] = [p * y // prev for y in row_i[c + 1:]]
            prev = p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots, swaps, None if scaled is None else scaled[1]


def rank(rows):
    """Exact row rank."""
    return len(_eliminate(rows)[1])


def rref(rows):
    """Reduced row echelon form (copy) and its pivot columns.

    Over Q the pivot rows of the fraction-free echelon are made Rationals
    and back-substituted as on a finite field.
    """
    m, pivots, _, scales = _eliminate(rows)
    if scales is not None:
        m = [[ratio(x, 1) for x in row] for row in m[:len(pivots)]]
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        row_r = m[r]
        inv = row_r[c]
        sup = [(j, x / inv) for j, x in support(row_r, c)]
        for j, x in sup:
            row_r[j] = x
        for i in range(r):
            row_i = m[i]
            if row_i[c]:
                f = row_i[c]
                for j, y in sup:
                    row_i[j] = row_i[j] - f * y
    return m[:len(pivots)], pivots


def nullspace(rows, ctx):
    """Basis of the right null space {v : rows . v = 0}."""
    if not rows:
        return []
    n_cols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * n_cols
        v[fc] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def left_nullspace(rows, ctx):
    """Basis of {f : f . rows = 0}."""
    return nullspace(transpose(rows), ctx)


def solve_matrix(a, b):
    """Solve a . x = b for a square invertible a, as the rref of [a | b]."""
    n = len(a)
    red, pivots = rref([ra + rb for ra, rb in zip(a, b)])
    if len(pivots) < n or pivots[n - 1] >= n:  # rank(a) < n
        raise SingularMatrix(f"matrix of size {n} is singular")
    return [row[n:] for row in red]


def det(a):
    """Exact determinant: over Q the last fraction-free pivot over the
    product of the row scales, else the product of the echelon pivots;
    signed by the swaps."""
    m, pivots, swaps, scales = _eliminate(a)
    if len(pivots) < len(a):
        return a[0][0] - a[0][0]
    if scales is not None:
        d = m[-1][-1]
        return ratio(-d if swaps % 2 else d, math.prod(scales))
    d = m[0][0]
    for i in range(1, len(m)):
        d = d * m[i][i]
    return -d if swaps % 2 else d


def in_row_span(rows, vec):
    """Whether vec lies in the row space of rows (exact rank test)."""
    return rank(rows) == rank(rows + [vec])


def same_row_span(rows_a, rows_b):
    """Whether two row sets span the same subspace."""
    return rank(rows_a) == rank(rows_b) == rank(rows_a + rows_b)
