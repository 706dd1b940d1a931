"""Field axioms checked on bulk random triples and with hypothesis."""

import random

import pytest
from hypothesis import given, strategies as st

from leonardz.exactfield import (
    TABLE_BOUND,
    ExtensionField,
    PrimeField,
    Rationals,
    sample_element,
)

QQ = Rationals()
GF81 = ExtensionField(3, 4)
# GF(3^4) multiplies by log/antilog tables, GF(1000003^2) always by
# polynomials.
CONTEXTS = [QQ, PrimeField(101), ExtensionField(2, 3), ExtensionField(3, 2),
            GF81, ExtensionField(1000003, 2)]


def test_axioms_cover_both_extension_routes():
    assert GF81._interned is not None
    assert CONTEXTS[-1].p ** CONTEXTS[-1].k > TABLE_BOUND


@pytest.mark.parametrize("ctx", CONTEXTS, ids=lambda c: c.label())
def test_axioms_on_random_triples(ctx):
    rng = random.Random(f"axioms|{ctx.label()}")
    one = ctx.one
    for _ in range(1000):
        a = sample_element(ctx, rng, 12)
        b = sample_element(ctx, rng, 12)
        c = sample_element(ctx, rng, 12)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ctx.zero
        if a:
            assert a * (one / a) == one
        if c:
            assert (a / c) * c == a


def rationals_strategy():
    return st.builds(
        lambda n, d: QQ(n) / QQ(d),
        st.integers(min_value=-10 ** 6, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6))


@given(rationals_strategy(), rationals_strategy(), rationals_strategy())
def test_rational_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(rationals_strategy())
def test_rational_normalization(x):
    import math

    text = str(x)
    if "/" in text:
        num, den = map(int, text.split("/"))
        assert den > 1
        assert math.gcd(abs(num), den) == 1
    else:
        int(text)


@given(st.integers(), st.integers())
def test_prime_field_embedding_is_homomorphism(m, n):
    gf = PrimeField(101)
    assert gf(m) + gf(n) == gf(m + n)
    assert gf(m) * gf(n) == gf(m * n)


@given(st.integers(min_value=1, max_value=7))
def test_gf8_multiplicative_group_order(i):
    gf8 = ExtensionField(2, 3)
    x = gf8((i & 1, (i >> 1) & 1, (i >> 2) & 1))
    assert x ** 7 == gf8.one


def test_rational_pow_negative_exponent():
    q = QQ("2/3")
    assert q ** -2 == QQ("9/4")
    assert q ** 0 == QQ(1)
