"""Dense exact linear algebra over a field context.

Matrices are plain lists of row lists whose entries all live in one field
context.  Everything here is pivoting Gaussian elimination with exact
division; sizes in this package stay tiny (at most (d+1)x(d+1) with
d <= parray.MAX_D = 16), so no fraction-free machinery is needed.
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
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """Matrix product, skipping zero left entries (inputs are often banded)."""
    n, k, m = len(a), len(b), len(b[0])
    zero = a[0][0] - a[0][0]
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        row_a = a[i]
        row_out = out[i]
        for t in range(k):
            x = row_a[t]
            if not x:
                continue
            row_b = b[t]
            for j in range(m):
                y = row_b[j]
                if y:
                    row_out[j] = row_out[j] + x * y
    return out


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    t = a[0][0]
    for i in range(1, len(a)):
        t = t + a[i][i]
    return t


def flatten(a):
    return [x for row in a for x in row]


def dot(u, v):
    """Sum of u_k v_k, skipping zero terms (eigenvectors have short supports)."""
    s = v[0] - v[0]
    for x, y in zip(u, v):
        if x and y:
            s = s + x * y
    return s


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def _echelon(rows):
    """Reduce a copy of `rows` to row echelon form; return (matrix, pivot columns)."""
    m = [row[:] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(r + 1, n_rows):
            if m[i][c]:
                f = m[i][c] / inv
                row_i, row_r = m[i], m[r]
                for j in range(c, n_cols):
                    row_i[j] = row_i[j] - f * row_r[j]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows):
    """Exact row rank."""
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def rref(rows):
    """Reduced row echelon form (copy) and its pivot columns."""
    m, pivots = _echelon(rows)
    n_cols = len(m[0]) if m else 0
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(r):
            if m[i][c]:
                f = m[i][c]
                row_i, row_r = m[i], m[r]
                for j in range(n_cols):
                    row_i[j] = row_i[j] - f * row_r[j]
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
    """Solve a . x = b for a square invertible a; raises SingularMatrix."""
    n = len(a)
    aug = [a[i][:] + b[i][:] for i in range(n)]
    width = len(aug[0])
    for c in range(n):
        piv = None
        for i in range(c, n):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            raise SingularMatrix(f"no pivot in column {c}")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                row_i, row_c = aug[i], aug[c]
                for j in range(c, width):
                    row_i[j] = row_i[j] - f * row_c[j]
    return [row[n:] for row in aug]


def det(a):
    """Exact determinant by elimination with row-swap sign tracking."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            return a[0][0] - a[0][0]
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                for j in range(c, n):
                    m[i][j] = m[i][j] - f * m[c][j]
    d = m[0][0]
    for i in range(1, n):
        d = d * m[i][i]
    return d if sign == 1 else -d


def in_row_span(rows, vec):
    """Whether vec lies in the row space of rows (exact rank test)."""
    base = [r[:] for r in rows]
    return rank(base) == rank(base + [vec[:]])


def same_row_span(rows_a, rows_b):
    """Whether two row sets span the same subspace."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    return ra == rb == rank([r[:] for r in rows_a] + [r[:] for r in rows_b])
