"""linalg against sympy's DomainMatrix over QQ and GF(p), on random matrices.

Both sides get the same entries; rank, determinant, null space, rref,
products and the solution of a . x = b must agree exactly.  Besides
small dense entries, the matrices are mostly zeros, or the five
generators I, D, T, T D, D T (D diagonal, T tridiagonal) flattened into
5 x n^2 rows as in zerodiag.x_space_basis, so the zero-skipping paths of
the kernels are exercised.  Over Q the elimination runs fraction-free on
integer rows, so it is also checked on 30-digit entries, on
rank-deficient matrices with zero columns before a pivot and row swaps,
and by a count of the Rationals it constructs.  So does mat_mul, which is
checked on Python int entries and ints mixed with Rationals, on zeroed
rows and columns, on 1 x n and n x 1 shapes, and by the same count.
Skipped without sympy.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leonardz import exactfield, linalg
from leonardz.errors import SingularMatrix
from leonardz.exactfield import PrimeField, Rational, Rationals

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


def assert_rref(pair):
    red, pivots = linalg.rref(pair.rows)
    want, want_pivots = pair.dm.rref()
    assert tuple(pivots) == tuple(want_pivots)
    assert [[pair.ours(x) for x in row] for row in red] == \
        [[pair.theirs(x) for x in row] for row in want.to_list()[:len(pivots)]]


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
    assert_rref(pair)


@st.composite
def product_operands(draw):
    """Two conforming matrices a (n x k) and b (k x m) given to both sides.

    Each dimension is 1 about half the time, so 1 x n and n x 1 shapes
    come up often; a row of a or b, a column of a or b, may be zeroed.
    Over Q the leonardz entries are Rationals, Python ints, or a mix of
    both, entry by entry.
    """
    p = draw(st.sampled_from(CHARACTERISTICS))
    n, k, m = (draw(st.one_of(st.just(1), st.integers(1, 6))) for _ in range(3))
    a = draw(matrix(p, n, k, draw(st.booleans())))
    b = draw(matrix(p, k, m, draw(st.booleans())))
    for rows in (a, b):
        if draw(st.booleans()):
            rows[draw(st.integers(0, len(rows) - 1))] = [0] * len(rows[0])
        if draw(st.booleans()):
            j = draw(st.integers(0, len(rows[0]) - 1))
            for row in rows:
                row[j] = 0
    pa, pb = Pair(p, a), Pair(p, b)
    if p is None:
        kind = draw(st.sampled_from(("rational", "int", "mixed")))
        for pair, raw in ((pa, a), (pb, b)):
            if kind == "int":
                raw = [[int(x) for x in row] for row in raw]
                pair.rows = raw
                pair.dm = pair.to_domain(raw)
            elif kind == "mixed":
                pair.rows = [[int(x) if x.denominator == 1 and draw(st.booleans()) else x
                              for x in row] for row in pair.rows]
    return pa, pb


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_mat_mul_matches_domain_matrix(operands):
    pa, pb = operands
    got = linalg.mat_mul(pa.rows, pb.rows)
    want = (pa.dm * pb.dm).to_list()
    assert [[pa.ours(x) for x in row] for row in got] == \
        [[pa.theirs(x) for x in row] for row in want]
    if pa.p is None:
        # over Q every entry is one Rational, ints in the input or not
        assert all(type(x) is Rational for row in got for x in row)


# -- the fraction-free route over Q ------------------------------------------

BIG = 10 ** 30


@st.composite
def big_pairs(draw, square=False):
    """Q entries with numerators and denominators of up to 30 digits, some
    zero, and a last row that may be a combination of two others."""
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-BIG, BIG),
                                            st.integers(1, BIG)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        f = Fraction(draw(st.integers(-BIG, BIG)), draw(st.integers(1, BIG)))
        rows[-1] = [x + f * y for x, y in zip(rows[0], rows[1])]
    return Pair(None, rows)


@st.composite
def deficient_pairs(draw, square=False):
    """Rows drawn from the span of fewer base rows that vanish on a few
    columns, the first among them, then shuffled: zero columns come before
    pivots, the rank is below the row count, and pivots need row swaps.
    A square draw may instead be a shuffled triangular matrix with a
    nonzero diagonal, whose determinant is the signed diagonal product."""
    p = draw(st.sampled_from(CHARACTERISTICS))
    n = draw(st.integers(2, 6))
    m = n if square else draw(st.integers(2, 6))
    if square and draw(st.booleans()):
        diag = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        upper = draw(matrix(p, n, n))
        rows = [[diag[i] if i == j else upper[i][j] if j > i else 0 for j in range(n)]
                for i in range(n)]
    else:
        zero_cols = {0} | set(draw(st.lists(st.integers(0, m - 1), max_size=m - 1)))
        base = draw(matrix(p, draw(st.integers(1, n - 1)), m))
        base = [[0 if j in zero_cols else x for j, x in enumerate(row)] for row in base]
        mix = draw(matrix(p, n, len(base)))
        rows = [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(m)]
                for coeffs in mix]
    return Pair(p, draw(st.permutations(rows)))


def elimination_pairs(square=False):
    return st.one_of(big_pairs(square), deficient_pairs(square))


@settings(max_examples=200, deadline=None)
@given(elimination_pairs())
def test_big_and_deficient_rank_rref_and_nullspace_match_domain_matrix(pair):
    assert_rank(pair)
    assert_rref(pair)
    assert_nullspace(pair)


@settings(max_examples=200, deadline=None)
@given(elimination_pairs(square=True))
def test_big_swapped_and_deficient_det_match_domain_matrix(pair):
    assert_det(pair)


def count_rationals(monkeypatch):
    """Count the Rationals constructed from here on: by the constructor,
    which Rational inherits from Fraction, and by exactfield._new, which
    builds the result of each arithmetic fast path."""
    count = [0]
    new, build = Fraction.__new__, exactfield._new

    def counting_new(cls, *args, **kwargs):
        count[0] += cls is Rational
        return new(cls, *args, **kwargs)

    def counting_build(cls):
        count[0] += cls is Rational
        return build(cls)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(exactfield, "_new", counting_build)
    return count


@pytest.mark.skipif(not issubclass(Rational, Fraction), reason="counts the Fraction subclass")
def test_rational_elimination_constructs_only_its_results(monkeypatch):
    """rank and det over Q eliminate on ints: rank constructs no Rational and
    det only its value."""
    rng = random.Random(19)
    rows = [[Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
            for _ in range(6)]
    deficient = rows[:5] + [[x - Rational(2, 3) * y for x, y in zip(rows[0], rows[1])]]
    count = count_rationals(monkeypatch)
    assert Rational(1, 2) + 1 and count[0] == 2, "the counter misses the arithmetic"
    count[0] = 0
    assert linalg.rank(rows) == 6 and linalg.rank(deficient) == 5
    assert count[0] == 0
    assert linalg.det(rows)
    assert count[0] == 1


@pytest.mark.skipif(not issubclass(Rational, Fraction), reason="counts the Fraction subclass")
def test_rational_product_constructs_only_its_results(monkeypatch):
    """mat_mul over Q multiplies on ints and constructs one Rational per
    output entry, ints, a zero row and a zero column in the input or not."""
    rng = random.Random(23)
    a = [[Rational(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(4)]
    b = [[rng.randint(-9, 9) if j % 2 else Rational(rng.randint(-9, 9), rng.randint(1, 9))
          for j in range(7)] for _ in range(5)]
    a[2] = [Rational(0)] * 5
    for row in b:
        row[3] = 0
    count = count_rationals(monkeypatch)
    assert Rational(1, 2) * 3 and count[0] == 2, "the counter misses the arithmetic"
    count[0] = 0
    out = linalg.mat_mul(a, b)
    assert count[0] == 4 * 7
    want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    assert out == want
