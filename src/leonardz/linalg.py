"""Exact linear algebra over a field context.

Matrices are plain lists of row lists whose entries all live in one field
context.  One pivoting Gaussian elimination with exact division, `_echelon`,
underlies rank, rref, the null spaces, solve and the determinant.  Sizes
stay tiny (at most (d+1)x(d+1) with d <= parray.MAX_D = 16), so no
fraction-free machinery is needed.

The matrices are mostly zeros (bidiagonal, tridiagonal, diagonal, or
triangular eigenvector factors), so the kernels skip structural zeros:
a row update, a product term or a dot product runs only over the
support of the row it reads, the (index, value) pairs of its nonzero
entries, and a sum starts from its first nonzero term instead of adding
it to zero.  The elementwise mat_add, mat_sub and mat_scale keep an
operand where the other is zero.  As x - f*0 = x, x + 0*y = x, 0 + y = y
and c*0 = 0 exactly, every result is the value the dense loop gives.
"""

from __future__ import annotations

from .errors import SingularMatrix


def zeros(n, m, ctx):
    z = ctx.zero
    return [[z for _ in range(m)] for _ in range(n)]


def identity(n, ctx):
    z, o = ctx.zero, ctx.one
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_add(a, b):
    """A + B, with 0 + y = y and x + 0 = x taken without arithmetic."""
    return [[(x + y if x else y) if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a, b):
    """A - B, with x - 0 = x taken without arithmetic."""
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    """c A, with c * 0 = 0 taken without arithmetic."""
    return [[c * x if x else x for x in row] for row in a]


def mat_mul(a, b):
    """Matrix product over the nonzero entries of a and the row supports of b."""
    m = len(b[0])
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


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


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


def support_dot(pairs, v):
    """Sum of x v_k over the support pairs (k, x), skipping zero v_k."""
    s = None
    for k, x in pairs:
        y = v[k]
        if y:
            s = x * y if s is None else s + x * y
    return v[0] - v[0] if s is None else s


def dot(u, v):
    """Sum of u_k v_k, skipping zero terms (eigenvectors have short supports)."""
    return support_dot(support(u), v)


def _echelon(rows):
    """The one forward elimination: an echelon copy of rows, its pivot
    columns and its row-swap count."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    swaps = 0
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        row_r = m[r]
        inv = row_r[c]
        sup = support(row_r, c)
        for i in range(r + 1, n_rows):
            row_i = m[i]
            if row_i[c]:
                f = row_i[c] / inv
                for j, y in sup:
                    row_i[j] = row_i[j] - f * y
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots, swaps


def rank(rows):
    """Exact row rank."""
    return len(_echelon(rows)[1])


def rref(rows):
    """Reduced row echelon form (copy) and its pivot columns."""
    m, pivots, _ = _echelon(rows)
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
    """Exact determinant: the product of the echelon pivots, signed by the swaps."""
    m, pivots, swaps = _echelon(a)
    if len(pivots) < len(a):
        return a[0][0] - a[0][0]
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
