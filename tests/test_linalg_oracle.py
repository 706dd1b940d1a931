"""linalg against sympy's DomainMatrix over QQ and GF(p), on random matrices.

Both sides get the same entries; rank, determinant, null space and the
solution of a . x = b must agree exactly.  Skipped without sympy.
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


@st.composite
def pairs(draw, square=False):
    p = draw(st.sampled_from(CHARACTERISTICS))
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    if p is None:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return Pair(p, rows)


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_rank_matches_domain_matrix(pair):
    assert linalg.rank(pair.rows) == pair.dm.rank()


@settings(max_examples=150, deadline=None)
@given(pairs(square=True))
def test_det_matches_domain_matrix(pair):
    assert pair.ours(linalg.det(pair.rows)) == pair.theirs(pair.dm.det())


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_nullspace_matches_domain_matrix(pair):
    ours = linalg.nullspace(pair.rows, pair.ctx)
    theirs = pair.dm.nullspace()
    assert len(ours) == theirs.shape[0]
    if ours:
        # equal row spaces have equal reduced row echelon forms
        assert pair.to_domain(ours).rref()[0] == theirs.rref()[0]


@settings(max_examples=150, deadline=None)
@given(pairs(square=True), st.integers(1, 3), st.data())
def test_solve_matrix_matches_domain_matrix(pair, k, data):
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
