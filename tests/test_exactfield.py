import itertools
import math
import operator
import pickle
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leonardz.errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidField,
    ParseError,
    ReducibleModulus,
    ZeroDenominator,
)
from leonardz import exactfield
from leonardz.analysis import analyze_instance
from leonardz.exactfield import (
    _GF2_MODULI,
    PRIME_BOUND,
    TABLE_BOUND,
    ExtensionField,
    PrimeField,
    Rational,
    Rationals,
    _is_prime,
    _poly_divmod,
    _poly_inv_mod,
    _poly_mul,
    _poly_trim,
    field_arith,
    parse_field,
    sample_element,
)
from leonardz.parray import LeonardType
from leonardz.sampling import sample_spec

QQ = Rationals()
GF7 = PrimeField(7)
GF4 = ExtensionField(2, 2)


def test_rational_addition_exact():
    assert QQ("1/3") + QQ("1/6") == QQ("1/2")


def test_prime_field_inverse_identity():
    x = GF7(3)
    assert (GF7(1) / x) * x == GF7(1)


def test_gf4_generator_product():
    # t * (t + 1) reduces to 1 modulo t^2 + t + 1
    t = GF4.generator
    assert t * (t + 1) == GF4(1)


def test_field_arith_dispatch():
    assert field_arith(QQ(2), QQ(3), "add") == QQ(5)
    assert field_arith(QQ(2), QQ(3), "sub") == QQ(-1)
    assert field_arith(QQ(2), QQ(3), "mul") == QQ(6)
    assert field_arith(QQ(2), QQ(3), "div") == QQ("2/3")


def test_field_arith_division_by_zero():
    with pytest.raises(DivisionByZero):
        field_arith(QQ(1), QQ(0), "div")
    with pytest.raises(DivisionByZero):
        field_arith(GF7(1), GF7(0), "div")
    with pytest.raises(DivisionByZero):
        field_arith(GF4(1), GF4(0), "div")


def test_contexts_compare_and_hash_by_key():
    twins = [(Rationals(), Rationals()), (PrimeField(7), PrimeField(7)),
             (ExtensionField(3, 2), ExtensionField(3, 2))]
    for one, other in twins:
        assert one is not other and one == other and hash(one) == hash(other)
    other_modulus = ExtensionField(2, 4, (1, 1, 1, 1, 1))
    assert ExtensionField(2, 4) != other_modulus and other_modulus == other_modulus
    assert PrimeField(7) != ExtensionField(7, 2) and PrimeField(7) != Rationals()
    assert PrimeField(7) != "GF(7)"


def test_element_text_and_literal_calls():
    gf9 = ExtensionField(3, 2)
    assert repr(GF7(3)) == "3 in GF(7)" and str(GF7(3)) == "3"
    assert repr(gf9.parse("t+1")) == "t+1 in GF(3^2)" and str(gf9.zero) == "0"
    x = GF7("3")
    assert x == GF7(3) and x.field is GF7
    assert GF7(x) is x and PrimeField(7)(x) == x
    with pytest.raises(ContextMismatch):
        PrimeField(11)(x)
    assert QQ("-2/4") == Fraction(-1, 2) and QQ(3) == 3


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        field_arith(GF7(1), PrimeField(5)(1), "add")
    with pytest.raises(ContextMismatch):
        GF4(1) + ExtensionField(2, 3)(1)


# -- the same-context fast path against the _coerce route --------------------

OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("make,a,b", [(lambda: PrimeField(7), "2", "3"),
                                        (lambda: ExtensionField(3, 2), "t+2", "2*t")],
                         ids=["GF(7)", "GF(3^2)"])
def test_equal_contexts_built_twice_combine(make, a, b):
    one, other = make(), make()
    assert one is not other and one == other
    x, y = one.parse(a), other.parse(b)
    for op in OPERATORS:
        assert op(x, y) == op(one.parse(a), one.parse(b))
        assert op(y, x) == op(other.parse(b), other.parse(a))
    assert x == other.parse(a) and other.parse(a) == x
    assert x != y


@pytest.mark.parametrize("x,y", [
    (PrimeField(7)(3), PrimeField(11)(3)),
    (ExtensionField(3, 2)(1), ExtensionField(3, 4)(1)),
    (PrimeField(7)(3), Fraction(1, 2)),
    (ExtensionField(3, 2)(1), Fraction(1, 2)),
], ids=["GF(7)-GF(11)", "GF(3^2)-GF(3^4)", "GF(7)-Fraction", "GF(3^2)-Fraction"])
def test_foreign_operands_are_refused(x, y):
    for op in OPERATORS:
        with pytest.raises(ContextMismatch):
            op(x, y)
        with pytest.raises(ContextMismatch):
            op(y, x)
    # Comparison stays what it was: unequal, not an error.
    assert not x == y and not y == x and x != y


# -- the rational fallback's fast paths against fractions.Fraction ------------

fallback = pytest.mark.skipif(not issubclass(Rational, Fraction),
                              reason="gmpy2 mpq is the rational backend")
BIG = 10 ** 30
# Zero, small, and 31- to 61-digit integers of either sign.
INTEGERS = st.one_of(st.just(0), st.integers(-12, 12), st.integers(BIG, BIG ** 2),
                     st.integers(-BIG ** 2, -BIG))
FRACTIONS = st.builds(Fraction, INTEGERS, INTEGERS.filter(bool))


def plain(x):
    return Fraction(x) if isinstance(x, Fraction) else x


def assert_as_fraction_does(op, x, y, fast):
    """op(x, y) gives what it gives on plain Fractions: the same value, hash
    and str, normalized, of class Rational where fast (else Fraction), or
    the same ZeroDivisionError text."""
    try:
        want = op(plain(x), plain(y))
    except ZeroDivisionError as e:
        with pytest.raises(ZeroDivisionError) as info:
            op(x, y)
        assert str(info.value) == str(e)
        return
    got = op(x, y)
    if isinstance(want, bool):
        assert got is want
        return
    assert (got, hash(got), str(got)) == (want, hash(want), str(want))
    assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
    assert type(got) is (Rational if fast else Fraction)


@fallback
@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS, INTEGERS, st.integers(-3, 3))
def test_rational_fast_paths_match_fraction(f, g, k, e):
    x, y = Rational(f), Rational(g)
    for op in (*OPERATORS, operator.eq, operator.ne):
        assert_as_fraction_does(op, x, y, fast=True)
        assert_as_fraction_does(op, x, k, fast=True)
        assert_as_fraction_does(op, k, x, fast=True)
        assert_as_fraction_does(op, x, g, fast=False)
        assert_as_fraction_does(op, g, x, fast=False)
    assert_as_fraction_does(lambda a, _: -a, x, None, fast=True)
    assert_as_fraction_does(operator.pow, x, e, fast=True)


@fallback
@pytest.mark.parametrize("op, x, y", [
    (operator.truediv, Rational(3, 4), Rational(0)),
    (operator.truediv, Rational(-3, 4), 0),
    (operator.truediv, Rational(0), Rational(0)),
    (operator.truediv, 5, Rational(0)),
    (operator.truediv, Rational(0), Fraction(0)),
    (operator.pow, Rational(0), -2),
], ids=["rational", "int", "zero-by-zero", "int-by-rational", "by-fraction", "power"])
def test_rational_zero_division_reads_as_fraction(op, x, y):
    with pytest.raises(ZeroDivisionError) as info:
        op(x, y)
    with pytest.raises(ZeroDivisionError) as want:
        op(plain(x), plain(y))
    assert str(info.value) == str(want.value)


# Zero, small, and 200-digit integers of either sign.
RATIO_INTEGERS = st.one_of(st.just(0), st.integers(-12, 12), st.integers(10 ** 199, 10 ** 200),
                           st.integers(-10 ** 200, -10 ** 199))


@settings(max_examples=300, deadline=None)
@given(RATIO_INTEGERS, RATIO_INTEGERS.filter(bool), st.one_of(st.just(1), st.integers(2, 10 ** 60)))
def test_ratio_is_the_constructor(n, d, g):
    """ratio(n, d) is Rational(n, d), value, str, hash, parts and type, on
    both backends: with a common factor g, for both signs of d and with a
    zero numerator."""
    for num, den in ((n * g, d * g), (n * g, -d * g), (0, d)):
        got, want = exactfield.ratio(num, den), Rational(num, den)
        assert type(got) is type(want)
        assert (got, str(got), hash(got)) == (want, str(want), hash(want))
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_ratio_by_zero_raises_as_the_constructor():
    for n in (0, 3, -3):
        with pytest.raises(ZeroDivisionError):
            Rational(n, 0)
        with pytest.raises(ZeroDivisionError):
            exactfield.ratio(n, 0)


def test_rational_pickles_and_parses_as_itself():
    x = Rational(-6, 4)
    assert pickle.loads(pickle.dumps(x)) == x and type(pickle.loads(pickle.dumps(x))) is Rational
    assert str(QQ("-6/4")) == "-3/2" and QQ(7) / 2 == QQ("7/2")


def test_sample_shares_the_values_of_repeated_draws(monkeypatch):
    """Rationals.sample makes a fresh build's rng calls and values, shares
    the value of a repeated (num, den) draw, and keeps at most
    SAMPLE_CACHE pairs per context."""
    monkeypatch.setattr(exactfield, "SAMPLE_CACHE", 40)
    ctx, rng, twin = Rationals(), random.Random(5), random.Random(5)
    drawn = [ctx.sample(rng, 6) for _ in range(1000)]
    for x in drawn:
        num, den = twin.randint(-6, 6), 0
        while den == 0:
            den = twin.randint(-6, 6)
        assert (x, str(x)) == (Fraction(num, den), str(Fraction(num, den)))
    assert rng.getstate() == twin.getstate()
    assert len(ctx._samples) == 40
    assert len({id(x) for x in drawn}) < len(drawn)
    assert Rationals().sample(random.Random(5), 6) is not drawn[0]


def test_ints_promote_on_both_sides():
    x = GF7(3)
    assert 3 - x == GF7(0) and x - 5 == GF7(5)
    assert x / 2 == GF7(5) and 2 / x == GF7(3)
    assert x == 10 and 10 == x and x != 4
    assert 5 + x == GF7(1) and 5 * x == GF7(1)
    gf9 = ExtensionField(3, 2)
    t = gf9.generator
    assert 1 - t == gf9("2*t+1") and (t + 1) / 2 == gf9("2*t+2")
    assert t * 4 == t and t + 3 == t and gf9(4) == 1


@pytest.mark.parametrize("make", [lambda: PrimeField(7), lambda: untabled(3, 2),
                                  lambda: ExtensionField(3, 2)],
                         ids=["GF(7)", "GF(3^2)", "GF(3^2) tabled"])
def test_division_by_zero_on_both_routes(make):
    ctx, twin = make(), make()
    x = ctx.one
    # The same context (fast path), an equal one and an int (_coerce route)
    for zero in (ctx.zero, x - x, twin.zero, 0):
        with pytest.raises(DivisionByZero):
            x / zero
        with pytest.raises(DivisionByZero):
            ctx.zero / zero
    assert (x / x) == 1 and x / twin.one == 1


def test_parse_rational_literals():
    assert QQ.parse("-52/81") == QQ(-52) / QQ(81)
    assert QQ.parse("7") == QQ(7)
    with pytest.raises(ZeroDenominator):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("3.5")


def test_parse_prime_field_reduces():
    gf3 = PrimeField(3)
    assert gf3.parse("5") == gf3(2)
    assert gf3.format(gf3.parse("5")) == "2"


def test_parse_extension_field_polynomials():
    t = GF4.generator
    assert GF4.parse("t+1") == t + 1
    assert GF4.parse("t") == t
    gf8 = ExtensionField(2, 3)
    x = gf8.parse("t^2+t+1")
    assert x == gf8.generator ** 2 + gf8.generator + 1
    with pytest.raises(ParseError):
        GF4.parse("t^5")
    gf9 = ExtensionField(3, 2)
    t = gf9.generator
    assert (gf9.parse("+t"), gf9.parse("-t+1"), gf9.parse("2t")) == (t, 1 - t, 2 * t)
    # One sign per term: a sign with no term after it, or a second sign
    # before a term, leaves an empty term.
    for text in ("+", "-", "1-", "t+", "t--1", "-+t"):
        with pytest.raises(ParseError, match=f"^bad term '' in '{re.escape(text)}'$"):
            gf9.parse(text)


@pytest.mark.parametrize("text", ["-52/81", "0", "7", "1/2"])
def test_rational_roundtrip(text):
    assert QQ.format(QQ.parse(text)) == text


def test_extension_field_format_roundtrip():
    gf9 = ExtensionField(3, 2)
    for coeffs in [(0, 0), (1, 0), (2, 1), (0, 2), (1, 1)]:
        x = gf9(coeffs)
        assert gf9.parse(gf9.format(x)) == x


def test_sample_height_one_support():
    rng = random.Random(1)
    support = {QQ(-1), QQ(0), QQ(1)}
    for _ in range(200):
        assert sample_element(QQ, rng, 1) in support


def test_sample_seed_sensitivity():
    a = [sample_element(QQ, random.Random(42), 12) for _ in range(2)]
    b = [sample_element(QQ, random.Random(43), 12) for _ in range(2)]
    assert a != b


def test_sample_seed_determinism():
    draws = lambda seed: [str(sample_element(QQ, random.Random(seed), 12))
                          for _ in range(20)]
    assert draws(7) == draws(7)


def test_sample_gf101_coverage():
    # coupon-collector sanity bound: 10^4 uniform draws from 101 residues
    gf = PrimeField(101)
    rng = random.Random(0)
    seen = {sample_element(gf, rng, 1).value for _ in range(10 ** 4)}
    assert len(seen) >= 95


def test_extension_reduction_degree():
    gf8 = ExtensionField(2, 3)
    rng = random.Random(5)
    for _ in range(200):
        x = sample_element(gf8, rng, 1)
        y = sample_element(gf8, rng, 1)
        assert len((x * y).coeffs) <= 3


def test_reducible_modulus_rejected():
    # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(ReducibleModulus):
        ExtensionField(2, 2, (1, 0, 1))


def test_default_moduli_exist_up_to_degree_eight():
    for k in range(2, 9):
        ctx = ExtensionField(2, k)
        assert ctx.characteristic == 2
        t = ctx.generator
        assert t ** (2 ** k - 1) == ctx.one
    assert ExtensionField(3, 2).characteristic == 3


def test_characteristics():
    assert QQ.characteristic == 0
    assert GF7.characteristic == 7
    assert GF4.characteristic == 2


def test_parse_field_labels():
    assert parse_field("Q") == QQ
    assert parse_field("GF(7)") == GF7
    assert parse_field("GF(2^2)") == GF4
    with pytest.raises(ParseError):
        parse_field("R")


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        ExtensionField(4, 2)


def test_prime_field_fraction_parse():
    gf7 = PrimeField(7)
    assert gf7.parse("1/3") == gf7(5)
    with pytest.raises(ZeroDenominator):
        gf7.parse("1/7")


# -- primality and irreducibility against the trial-division references ----

def trial_division_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def trial_division_irreducible(m, p):
    """Reference route: divide by every monic polynomial of degree <= deg(m)/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for divisor in monic_polynomials(p, d):
            if not _poly_divmod(m, divisor, p)[1]:
                return False
    return True


def monic_polynomials(p, k):
    """Every monic degree-k polynomial over GF(p), in default-modulus order."""
    for idx in range(p ** k):
        yield tuple(idx // p ** i % p for i in range(k)) + (1,)


def reference_default_modulus(p, k):
    if p == 2 and k in _GF2_MODULI:
        return _GF2_MODULI[k]
    return next(m for m in monic_polynomials(p, k) if trial_division_irreducible(m, p))


# Composites that pass Miller-Rabin to the first n prime bases, n = 1..12,
# with Carmichael numbers and squares of Wieferich primes.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    561, 41041, 825265, 1093 ** 2, 3511 ** 2,
)


def test_miller_rabin_matches_trial_division():
    wrong = [n for n in range(2 * 10 ** 5) if _is_prime(n) != trial_division_prime(n)]
    assert wrong == []


def test_miller_rabin_rejects_strong_pseudoprimes():
    assert [n for n in STRONG_PSEUDOPRIMES if _is_prime(n)] == []
    assert _is_prime(10 ** 18 + 3) and _is_prime(2 ** 61 - 1)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=PRIME_BOUND - 1))
def test_miller_rabin_matches_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _is_prime(n) == sympy.isprime(n)


@pytest.mark.parametrize("label", [
    "GF(3317044064679887385961981)",     # psi_13, fools all 13 bases
    "GF(618970019642690137449562111)",   # 2^89 - 1, prime but too large
    "GF(3317044064679887385961981^2)",
])
def test_characteristic_bound(label):
    with pytest.raises(InvalidField):
        parse_field(label)


def test_eighteen_digit_prime_field():
    assert parse_field("GF(1000000000000000003)").p == 10 ** 18 + 3


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 6), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3),
                                 (5, 4), (7, 2), (7, 3)])
def test_rabin_matches_trial_division(p, k):
    for m in monic_polynomials(p, k):
        if trial_division_irreducible(m, p):
            assert ExtensionField(p, k, m).modulus == m
        else:
            with pytest.raises(ReducibleModulus):
                ExtensionField(p, k, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
def test_default_modulus_is_first_reference_irreducible(p):
    for k in range(2, 9 if p < 97 else 5):
        assert ExtensionField(p, k).modulus == reference_default_modulus(p, k), (p, k)


@pytest.mark.parametrize("label", ["GF(97^8)", "GF(1009^4)", "GF(1000003^2)",
                                   "GF(1000003^7)", "GF(1000003^8)"])
def test_large_extension_labels(label):
    sympy = pytest.importorskip("sympy")
    start = time.perf_counter()
    ctx = parse_field(label)
    assert time.perf_counter() - start < 1.0
    x = sympy.Symbol("x")
    assert sympy.Poly(ctx.modulus[::-1], x, modulus=ctx.p).is_irreducible
    t = ctx.generator
    assert t ** (ctx.p ** ctx.k) == t


# -- log/antilog tables against the polynomial route ------------------------

def every_element(ctx):
    return [ctx(digits) for digits in itertools.product(range(ctx.p), repeat=ctx.k)]


def coefficientwise(x, y, sign, p, k):
    pad = (0,) * k
    return _poly_trim(tuple((u + sign * v) % p for u, v in zip(x + pad, y + pad)))


def poly_power(a, n, m, p):
    """a^n modulo m by square and multiply on coefficient tuples."""
    if n < 0:
        a, n = _poly_inv_mod(a, m, p), -n
    acc = (1,)
    while n:
        if n & 1:
            acc = _poly_divmod(_poly_mul(acc, a, p), m, p)[1]
        a = _poly_divmod(_poly_mul(a, a, p), m, p)[1]
        n >>= 1
    return acc


def assert_table_route_matches_polynomials(ctx, elements=None):
    p, k, m = ctx.p, ctx.k, ctx.modulus
    q = p ** k
    elements = every_element(ctx) if elements is None else elements
    assert ctx.zero ** 0 == 1
    for x in elements:
        a = x.coeffs
        assert (-x).coeffs == coefficientwise((), a, -1, p, k), x
        if a:
            assert x.inverse().coeffs == _poly_inv_mod(a, m, p), x
        else:
            with pytest.raises(DivisionByZero):
                x.inverse()
        for n in (-q, -1, 0, 1, q, 10 ** 30):
            if a or n >= 0:
                assert (x ** n).coeffs == poly_power(a, n, m, p), (x, n)
            else:
                with pytest.raises(DivisionByZero):
                    x ** n
        three, two, four = ((c % p,) if c % p else () for c in (3, 2, 4))
        assert (x + 3).coeffs == coefficientwise(a, three, 1, p, k), x
        assert (3 - x).coeffs == coefficientwise(three, a, -1, p, k), x
        assert (2 * x).coeffs == _poly_trim(tuple(2 * c % p for c in a)), x
        assert (x == 4) == (4 == x) == (a == four), x
        for y in elements:
            b = y.coeffs
            assert (x * y).coeffs == _poly_divmod(_poly_mul(a, b, p), m, p)[1], (x, y)
            assert (x + y).coeffs == coefficientwise(a, b, 1, p, k), (x, y)
            assert (x - y).coeffs == coefficientwise(a, b, -1, p, k), (x, y)
            if b:
                quotient = _poly_divmod(_poly_mul(a, _poly_inv_mod(b, m, p), p), m, p)[1]
                assert (x / y).coeffs == quotient, (x, y)
            if ctx._interned is not None:
                assert x * y is y * x, (x, y)


def untabled(p, k, modulus=None):
    """GF(p^k) made as if past TABLE_BOUND: every operation takes the
    coefficient route, so small fields check it on every pair."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(exactfield, "TABLE_BOUND", 1)
        ctx = ExtensionField(p, k, modulus)
    assert ctx._interned is None and ctx._zech is None
    return ctx


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 4), (5, 2), (7, 2)])
def test_tables_match_the_polynomial_route(p, k):
    assert p ** k <= TABLE_BOUND
    ctx = ExtensionField(p, k)
    shared = every_element(ctx)
    assert all((x.log is None) == (not x) for x in shared)
    assert_table_route_matches_polynomials(ctx, shared)
    # Equal but distinct contexts, with and without tables, find the same
    # primitive element; their elements combine with this field's.
    twin, plain = ExtensionField(p, k, ctx.modulus), untabled(p, k, ctx.modulus)
    assert twin == ctx == plain and twin is not ctx
    assert [twin(x.coeffs).log for x in shared] == [x.log for x in shared]
    for other in (twin, plain):
        for x in shared:
            for y in shared:
                y_other = other(y.coeffs)
                for op in (operator.add, operator.sub, operator.mul):
                    assert op(x, y_other).field is ctx and op(x, y_other) == op(x, y)
                    assert op(y_other, x).field is other and op(y_other, x) == op(y, x)
                if y:
                    assert x / y_other == x / y
                if x:
                    assert y_other / x == y / x


def test_untabled_sums_match_coefficientwise():
    ctx = untabled(3, 2)
    assert_table_route_matches_polynomials(ctx)
    assert ctx._interned is None and ctx._zech is None


@pytest.mark.parametrize("p,k", [(2, 2), (3, 4), (61, 2)])
def test_no_tabled_element_lacks_its_log(p, k):
    # Whatever route makes an element of a tabled field, it is the shared
    # element the tables hold, and only zero has no log.  GF(61^2) is the
    # largest tabled field.
    ctx, twin = ExtensionField(p, k), ExtensionField(p, k)
    assert ctx._interned is not None and p ** k <= TABLE_BOUND
    t, rng = ctx.generator, random.Random(f"interned|{p}^{k}")
    operands = [ctx(n) for n in (0, 1, -1, p, 2 * p + 1, 10 ** 30)]
    operands += [ctx((1,) * k), ctx((0,) * k), ctx(tuple(range(2 * k + 1))),
                 ctx(t), ctx(twin.generator)]
    operands += [ctx.parse(text) for text in ("0", "1", "t", f"{p - 1}*t+2", "-t+1")]
    operands += [ctx.sample(rng) for _ in range(12)] + [t, ctx.zero, ctx.one]
    made = list(operands)
    for x in operands:
        made += [-x, x ** 0, x ** 3, x + 2, 2 + x, x - 3, 3 - x, x * 5, 5 * x]
        if x:
            made += [x.inverse(), x ** -2, 1 / x, x / 4 if 4 % p else x]
        for y in operands:
            y_twin = twin(y.coeffs)
            made += [x + y, x - y, x * y, x + y_twin, x - y_twin, x * y_twin]
            if y:
                made += [x / y, x / y_twin]
    for x in made:
        assert x.field is ctx and x is ctx._interned[x.coeffs], x
        assert (x.log is None) == (not x), x


def test_zech_table_against_its_definition():
    ctx = ExtensionField(3, 4)
    q, exp = 81, [x.coeffs for x in ctx._elements]
    log = {c: n for n, c in enumerate(exp[:q - 1])}
    assert [x.log for x in ctx._elements] == 2 * list(range(q - 1))
    assert len(ctx._zech) == len(exp) == 2 * (q - 1)
    for n in range(2 * (q - 1)):
        one_plus = coefficientwise((1,), exp[n], 1, 3, 4)
        assert ctx._zech[n] == (log[one_plus] if one_plus else None)
    assert exp[ctx._log_minus_one] == (2,)
    assert ctx._zech.count(None) == 2  # 1 + g^n = 0 only at g^n = -1


def test_tables_with_a_non_primitive_modulus():
    # t^4+t^3+t^2+t+1 divides t^5 - 1, so t has order 5, not 15; the
    # tables must be built on some other primitive element.
    ctx = ExtensionField(2, 4, (1, 1, 1, 1, 1))
    t = ctx.generator
    assert t ** 5 == ctx.one and t ** 3 != ctx.one
    assert_table_route_matches_polynomials(ctx)


def test_fields_past_the_bound_take_the_polynomial_route(monkeypatch):
    large, small = ExtensionField(67, 2), ExtensionField(61, 2)
    assert 61 ** 2 <= TABLE_BOUND < 67 ** 2
    calls = []

    def counted(a, b, p):
        calls.append(p)
        return _poly_mul(a, b, p)

    monkeypatch.setattr(exactfield, "_poly_mul", counted)
    for ctx in (small, large):
        x, y = ctx("3*t+5"), ctx("t+7")
        product, quotient = x * y, x / y
        assert product.coeffs == _poly_divmod(_poly_mul(x.coeffs, y.coeffs, ctx.p),
                                              ctx.modulus, ctx.p)[1]
        assert quotient * y == x
        assert bool(calls) == (ctx is large), ctx
    assert small._interned is not None
    assert large._interned is None and large._zech is None


# The arithmetic helpers of the polynomial route: all _poly_* but
# _poly_trim, which only normalises a literal's coefficients.
PRODUCT_HELPERS = ("_poly_mul", "_poly_divmod", "_poly_inv_mod")
SUM_HELPERS = ("_poly_add",)


def assert_gf81_work_refuses(monkeypatch, names):
    # From construction on, sampling and analyses, fast and deep, of a
    # q-racah and a q-hahn spec over a fresh GF(3^4) call none of names.
    assert sorted(PRODUCT_HELPERS + SUM_HELPERS) == sorted(
        name for name in vars(exactfield)
        if name.startswith("_poly_") and name != "_poly_trim")
    ctx = ExtensionField(3, 4)

    def refusing(name):
        def refuse(*args):
            raise AssertionError(f"{name} in a field with tables")
        return refuse

    for name in names:
        monkeypatch.setattr(exactfield, name, refusing(name))
    rng = random.Random("tables")
    for family in (LeonardType.Q_RACAH, LeonardType.Q_HAHN):
        spec = sample_spec(family, 10, ctx, rng)
        for deep in (False, True):
            chk = analyze_instance(spec, deep=deep)
            assert chk.ok, chk.failures


def test_fast_gf81_analysis_never_reduces_a_polynomial(monkeypatch):
    # Every product, quotient and inverse is found by the tables.
    assert_gf81_work_refuses(monkeypatch, PRODUCT_HELPERS)


def test_tabled_gf81_analysis_never_adds_coefficientwise(monkeypatch):
    # Every sum and difference is found by the tables, zero operands
    # included.
    assert_gf81_work_refuses(monkeypatch, SUM_HELPERS)


def test_tabled_gf81_deep_analysis_makes_no_element(monkeypatch):
    # Once the tables exist every operation returns one of their shared
    # elements: a deep analysis allocates none.
    ctx = parse_field("GF(3^4)")
    spec = sample_spec(LeonardType.Q_RACAH, 10, ctx, random.Random("interned"))
    assert ctx._interned is not None
    made, new = [], exactfield._new

    def counting_new(cls, *args):
        if cls is exactfield.ExtensionFieldElement:
            made.append(cls)
        return new(cls, *args)

    monkeypatch.setattr(exactfield, "_new", counting_new)
    chk = analyze_instance(spec, deep=True)
    assert chk.ok, chk.failures
    assert made == []


def test_parse_field_returns_one_context_per_label():
    assert parse_field("GF(3^4)") is parse_field("GF(3^4)")
    assert parse_field("GF(7)") is parse_field("GF(7)")


def test_table_build_is_fast_at_the_bound():
    # The largest p^k <= TABLE_BOUND with 2 <= k <= 8 is 61^2 = 3721.
    start = time.perf_counter()
    fields = [ExtensionField(p, k) for p, k in ((61, 2), (5, 5), (7, 4), (3, 7), (13, 3))]
    assert time.perf_counter() - start < 1.0
    assert all(ctx._interned is not None for ctx in fields)


@pytest.mark.parametrize("built", [False, True], ids=["untabled", "tabled"])
def test_long_coefficient_sequences_reduce_by_the_modulus(built):
    # GF(3^4): a sequence longer than k = 4 is the polynomial it spells,
    # reduced by the modulus, with tables and without.
    ctx = ExtensionField(3, 4) if built else untabled(3, 4)
    t = ctx.generator
    assert ctx((0, 0, 0, 0, 1)) == t ** 4
    coeffs = (2, 1, 0, 4, 1, 2, 0, 5)
    want = sum((c * t ** e for e, c in enumerate(coeffs)), ctx.zero)
    got = ctx(coeffs)
    assert got == want and got.coeffs == want.coeffs and len(got.coeffs) <= 4
    assert ctx((0,) * 9) == ctx.zero and ctx((1, 0, 0, 0, 0, 0)) == ctx.one
    if built:
        assert got is want


@pytest.mark.parametrize("make", [lambda: ExtensionField(3, 4),
                                  lambda: ExtensionField(67, 2)],
                         ids=["GF(3^4) tabled", "GF(67^2) untabled"])
def test_int_operands_skip_the_field_constructor_when_tabled(monkeypatch, make):
    # A tabled field promotes an int operand by indexing its subfield; an
    # untabled one still goes through ExtensionField.__call__.
    ctx = make()
    x = ctx.generator + 1
    want = {n: (x + ctx(n), x - ctx(n), x * ctx(n), ctx(n) - x) for n in (0, 3, -4, 200)}
    calls = []
    call = ExtensionField.__call__

    def counting(self, value):
        calls.append(value)
        return call(self, value)

    monkeypatch.setattr(ExtensionField, "__call__", counting)
    for n, (s, d, p, r) in want.items():
        assert (x + n, x - n, x * n, n - x, n + x, n * x) == (s, d, p, r, s, p)
    tabled_field = ctx._subfield is not None
    assert calls == ([] if tabled_field else [n for n in want for _ in range(6)])
