"""linalg against sympy's DomainMatrix over QQ and GF(p), on random matrices.

Both sides get the same entries; rank, determinant, null space, rref,
products and the solution of a . x = b must agree exactly.  Besides
small dense entries, the matrices are mostly zeros, or the five
generators I, D, T, T D, D T (D diagonal, T tridiagonal) flattened into
5 x n^2 rows as in zerodiag.x_space_basis, so the zero-skipping paths of
the kernels are exercised.  Skipped without sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leonardz import linalg
from leonardz.errors import SingularMatrix
from leonardz.exactfield import PrimeField, Rationals

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

# None stands for Q; the primes include 2 and 3, where small entries vanish.
CHARACTERISTICS = (None, 2, 3, 7, 1000003)


class Pair:
    """One matrix given to both sides: leonardz rows and a DomainMatrix."""

    def __init__(self, p, entries):
        self.p = p
        self.ctx = Rationals() if p is None else PrimeField(p)
        self.dom = sympy.QQ if p is None else sympy.GF(p)
        self.rows = [[self.ctx(x) for x in row] for row in entries]
        self.dm = self.to_domain(self.rows)

    def to_domain(self, rows):
        """leonardz rows as a DomainMatrix over the same field."""
        if self.p is None:
            conv = [[self.dom(x.numerator, x.denominator) for x in row] for row in rows]
        else:
            conv = [[self.dom(x.value) for x in row] for row in rows]
        return DomainMatrix(conv, (len(conv), len(conv[0])), self.dom)

    def ours(self, x):
        return (x.numerator, x.denominator) if self.p is None else x.value

    def theirs(self, x):
        return (x.numerator, x.denominator) if self.p is None else int(x) % self.p


def entries(p, sparse):
    if p is None:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(-3, 3)
    if sparse:
        return st.one_of(st.just(0), st.just(0), st.just(0), entry)
    return entry


def matrix(p, n, m, sparse=False):
    return st.lists(st.lists(entries(p, sparse), min_size=m, max_size=m),
                    min_size=n, max_size=n)


@st.composite
def pairs(draw, square=False, sparse=False):
    p = draw(st.sampled_from(CHARACTERISTICS))
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    return Pair(p, draw(matrix(p, n, m, sparse)))


@st.composite
def generator_pairs(draw):
    """I, D, T, T D and D T flattened into the rows of a 5 x n^2 matrix."""
    p = draw(st.sampled_from(CHARACTERISTICS))
    n = draw(st.integers(1, 5))
    dg = draw(st.lists(entries(p, False), min_size=n, max_size=n))
    band = draw(matrix(p, n, 3, sparse=True))
    tri = [[band[i][j - i + 1] if abs(i - j) <= 1 else 0 for j in range(n)]
           for i in range(n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    diag = [[dg[i] if i == j else 0 for j in range(n)] for i in range(n)]
    td = [[tri[i][j] * dg[j] for j in range(n)] for i in range(n)]
    dt = [[dg[i] * tri[i][j] for j in range(n)] for i in range(n)]
    return Pair(p, [[x for row in mat for x in row] for mat in (eye, diag, tri, td, dt)])


sparse_pairs = st.one_of(pairs(sparse=True), generator_pairs())
any_pairs = st.one_of(pairs(), sparse_pairs)


def assert_rank(pair):
    assert linalg.rank(pair.rows) == pair.dm.rank()


def assert_det(pair):
    assert pair.ours(linalg.det(pair.rows)) == pair.theirs(pair.dm.det())


def assert_nullspace(pair):
    ours = linalg.nullspace(pair.rows, pair.ctx)
    theirs = pair.dm.nullspace()
    assert len(ours) == theirs.shape[0]
    if ours:
        # equal row spaces have equal reduced row echelon forms
        assert pair.to_domain(ours).rref()[0] == theirs.rref()[0]


def assert_solve(pair, k, data):
    n = len(pair.rows)
    rhs = [[pair.ctx(data.draw(st.integers(-3, 3))) for _ in range(k)] for _ in range(n)]
    if not pair.dm.det():
        with pytest.raises(SingularMatrix):
            linalg.solve_matrix(pair.rows, rhs)
        return
    x = linalg.solve_matrix(pair.rows, rhs)
    want = pair.dm.lu_solve(pair.to_domain(rhs)).to_list()
    assert [[pair.ours(v) for v in row] for row in x] == \
        [[pair.theirs(v) for v in row] for row in want]


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_rank_matches_domain_matrix(pair):
    assert_rank(pair)


@settings(max_examples=150, deadline=None)
@given(pairs(square=True))
def test_det_matches_domain_matrix(pair):
    assert_det(pair)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_nullspace_matches_domain_matrix(pair):
    assert_nullspace(pair)


@settings(max_examples=150, deadline=None)
@given(pairs(square=True), st.integers(1, 3), st.data())
def test_solve_matrix_matches_domain_matrix(pair, k, data):
    assert_solve(pair, k, data)


@settings(max_examples=150, deadline=None)
@given(sparse_pairs)
def test_sparse_rank_and_nullspace_match_domain_matrix(pair):
    assert_rank(pair)
    assert_nullspace(pair)


@settings(max_examples=150, deadline=None)
@given(pairs(square=True, sparse=True), st.integers(1, 3), st.data())
def test_sparse_det_and_solve_match_domain_matrix(pair, k, data):
    assert_det(pair)
    assert_solve(pair, k, data)


@settings(max_examples=150, deadline=None)
@given(any_pairs)
def test_rref_matches_domain_matrix(pair):
    red, pivots = linalg.rref(pair.rows)
    want, want_pivots = pair.dm.rref()
    assert tuple(pivots) == tuple(want_pivots)
    assert [[pair.ours(x) for x in row] for row in red] == \
        [[pair.theirs(x) for x in row] for row in want.to_list()[:len(pivots)]]


@settings(max_examples=150, deadline=None)
@given(any_pairs, st.integers(1, 6), st.booleans(), st.data())
def test_mat_mul_matches_domain_matrix(pair, m, sparse, data):
    other = Pair(pair.p, data.draw(matrix(pair.p, len(pair.rows[0]), m, sparse)))
    got = linalg.mat_mul(pair.rows, other.rows)
    want = (pair.dm * other.dm).to_list()
    assert [[pair.ours(x) for x in row] for row in got] == \
        [[pair.theirs(x) for x in row] for row in want]
