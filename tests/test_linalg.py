import random

import pytest
from hypothesis import given, strategies as st

from leonardz import linalg
from leonardz.exactfield import PrimeField, Rationals

QQ = Rationals()


def qmat(rows):
    return [[QQ(x) for x in row] for row in rows]


def test_rank_identity():
    assert linalg.rank(linalg.identity(4, QQ)) == 4


def test_rank_worked_moment_matrix():
    # rows: ones, (0,1,2,3), (3,2,1,0), (0,2,2,0); third row = 3*row0 - row1
    m = qmat([[1, 1, 1, 1], [0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 2, 0]])
    assert linalg.rank(m) == 3


def test_rank_constant_row_matrix():
    m = qmat([[1, 1, 1, 1], [0, 1, 2, 3], [5, 5, 5, 5], [0, 5, 10, 15]])
    assert linalg.rank(m) == 2


def test_left_nullspace_matches_hand_solution():
    m = qmat([[1, 1, 1, 1], [0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 2, 0]])
    basis = linalg.left_nullspace(m, QQ)
    assert len(basis) == 1
    f = basis[0]
    # proportional to (-3, 1, 1, 0)
    target = [QQ(-3), QQ(1), QQ(1), QQ(0)]
    scale = None
    for x, y in zip(f, target):
        if y:
            scale = x / y
            break
    assert scale and all(x == scale * y for x, y in zip(f, target))
    assert linalg.is_zero_matrix(linalg.mat_mul([f], m))


def test_det_worked_t_matrix():
    t = qmat([[1, 0, 0, 0], [0, 1, 0, 0], [9, -3, -3, 1], [0, 0, 0, 1]])
    assert linalg.det(t) == QQ(-3)


def test_det_singular():
    assert linalg.det(qmat([[1, 2], [2, 4]])) == QQ(0)


def test_solve_and_inverse_roundtrip():
    a = qmat([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    inv = linalg.solve_matrix(a, linalg.identity(3, QQ))
    assert linalg.mat_mul(a, inv) == linalg.identity(3, QQ)


def test_solve_singular_raises():
    from leonardz.errors import SingularMatrix
    import pytest

    with pytest.raises(SingularMatrix):
        linalg.solve_matrix(qmat([[1, 2], [2, 4]]), linalg.identity(2, QQ))


def test_in_row_span():
    rows = qmat([[1, 0, 0], [0, 1, 0]])
    assert linalg.in_row_span(rows, [QQ(2), QQ(-5), QQ(0)])
    assert not linalg.in_row_span(rows, [QQ(0), QQ(0), QQ(1)])


def test_same_row_span_scale_invariant():
    a = qmat([[1, 2, 3]])
    b = qmat([[-3, -6, -9]])
    assert linalg.same_row_span(a, b)
    assert not linalg.same_row_span(a, qmat([[1, 2, 4]]))


def test_python_int_rows_are_exact_rationals():
    # ints take the fraction-free route, so no float division creeps in
    assert linalg.det([[0, 2], [3, 1]]) == -6
    assert linalg.rref([[2, 4, 1], [1, 2, 0]]) == \
        ([[QQ(1), QQ(2), QQ(0)], [QQ(0), QQ(0), QQ(1)]], [0, 2])
    assert linalg.rank([[3, 1], [1, QQ(1) / 3]]) == 1


def test_rank_over_prime_field():
    gf5 = PrimeField(5)
    m = [[gf5(1), gf5(2)], [gf5(3), gf5(6)]]
    assert linalg.rank(m) == 1


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_nullspace_dimension_theorem(seed):
    rng = random.Random(seed)
    n, m = 3, 5
    a = [[QQ(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
    rk = linalg.rank(a)
    null = linalg.nullspace(a, QQ)
    assert rk + len(null) == m
    for v in null:
        assert linalg.is_zero_matrix(linalg.mat_mul(a, [[x] for x in v]))


def test_mat_mul_banded_inputs():
    a = qmat([[1, 0, 0], [2, 3, 0], [0, 4, 5]])
    b = qmat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    expected = qmat([[1, 1, 0], [2, 5, 3], [0, 4, 9]])
    assert linalg.mat_mul(a, b) == expected


@pytest.mark.parametrize("ctx", [Rationals(), PrimeField(7)], ids=["Q", "GF(7)"])
def test_elementwise_ops_match_the_dense_loop(ctx):
    rng = random.Random(f"elementwise|{ctx.label()}")

    def sparse():
        return [[ctx(rng.choice([0, 0, 0, 1, -2, 3, 5])) for _ in range(5)]
                for _ in range(5)]

    for _ in range(40):
        a, b, c = sparse(), sparse(), ctx(rng.choice([0, 1, -3]))
        assert linalg.mat_sub(a, b) == [[x - y for x, y in zip(ra, rb)]
                                        for ra, rb in zip(a, b)]
        assert linalg.mat_scale(c, a) == [[c * x for x in row] for row in a]


def test_flatten_row_major():
    a = qmat([[1, 2], [3, 4]])
    assert linalg.flatten(a) == [QQ(1), QQ(2), QQ(3), QQ(4)]
