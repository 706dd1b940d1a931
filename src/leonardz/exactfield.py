"""Exact field arithmetic over Q, GF(p) and small extension fields GF(p^k).

Rationals are represented by gmpy2.mpq when available (much faster), else
by Rational, a subclass of fractions.Fraction; both keep values
normalized with positive denominator.  Rational gives + - * / ** == and
unary - a fast path for a Rational or int operand: Fraction's own gcd
steps (Henrici's cross-cancellation; Knuth, TAOCP vol. 2, 4.5.1) on
_numerator and _denominator, and the result built with object.__new__,
without Fraction's operator dispatch and constructor.  A sum, product or
quotient of two small Rationals takes 0.41-0.48 us against 1.23-1.31 us
as Fractions (CPython 3.11, x86_64).  Any other operand or method is
Fraction's, so a Fraction operand gives a Fraction.  ratio(n, d) builds
the Rational n / d of two ints the same way, by one gcd and _new (mpq
itself under gmpy2): 0.24 us on small ints and 0.56 us on 90-bit ones,
against 0.48 and 0.86 us by the constructor (CPython 3.11, x86_64).
Rationals.sample shares the value of a repeated draw.

One protocol serves every field.  A context (FieldContext) is equal to
another, and hashes, by its key: ("Q",), ("GF", p) or
("GF", p, k, modulus).  Called on a str it parses the literal (parse),
and on any other value it makes the element (_element); format gives an
element's text and sample draws one.  So a context defines key,
_element, parse, format and sample, and nothing else of the protocol.
Prime and extension field elements are small immutable wrapper objects
on _FiniteFieldElement, which gives the reflected - and / through the
class's _coerce, and str and repr ("3 in GF(7)", "t+1 in GF(3^2)")
through the context's format.  Each class keeps its own _coerce, ==,
hash, bool and forward operators, which differ between the classes or
take the fast paths below.  Elements promote Python ints through the
prime subfield, and refuse to combine across contexts.

The characteristic must be a prime below PRIME_BOUND, where Miller-Rabin
with fixed bases is exact.  Rabin's test checks GF(p^k) moduli; the default
modulus is the first candidate, in a fixed order, that passes it.

Prime and extension field operators skip _coerce when both operands
belong to the very same context object, the common case inside one
analysis, and build the result without a second reduction.  Ints, equal
but distinct contexts and foreign types take the _coerce route, which
promotes an int or raises ContextMismatch.

GF(p^k) arithmetic has two routes.  The coefficient route adds
coefficient tuples with one reduction mod p (_poly_add; a - b is
a + (-b)), multiplies them and reduces by the modulus (_poly_mul, and
the remainder of _poly_divmod), and inverts by the extended Euclid
algorithm (_poly_inv_mod).  A field of q = p^k <= TABLE_BOUND elements
builds, when it is made and by that route, tables over a primitive element
g (Lidl and Niederreiter, Finite Fields, section 9.4): its q - 1 nonzero
elements, made once, each holding its exponent over g as its log, in a
list by exponent and a map by coefficient tuple, and the Zech
logarithms Z(n) = log(1 + g^n) (K. Huber, IEEE Trans. Inf. Theory 36
(1990) 946-950).  The field's operators, parse, sample, int promotion
and __call__ return only those shared elements, so in a tabled field
an element has no log exactly when it is zero.  When both operands
carry a log, a product, quotient, inverse, power or negation is one
list index on their logs, with -1 = g^((q-1)/2) for odd p and 1 in
characteristic 2, and a sum or difference is one Zech lookup more,
g^i + g^j = g^(i + Z(j - i)); no tuple is hashed and no element is
made.  A zero operand returns the other operand, its negation or zero.
In GF(3^4) an operation takes 110-150 ns, against about 7 us for a
polynomial reduction, about 22 us for a Euclid run and 2.7 us for a
coefficient-wise sum (measured on CPython 3.11, x86_64).

The build makes a tabled field slower to construct: 1.3 ms for
GF(3^4), 3.5 ms for GF(2^8) and 19-22 ms for GF(61^2) and GF(5^5), the
largest fields under the bound, against 0.2-2 ms without tables (best
of 5, CPython 3.11, x86_64).  parse_field keeps the contexts it has
made, so a process pays it once per label.  TABLE_BOUND = 4096 bounds
the memory the tables hold (0.8 MB for GF(61^2) and 0.6 MB for
GF(5^5), by tracemalloc) and keeps any build well under a second.
The coefficient route serves larger fields, Rabin's test and the table
build, and it is the reference the tests compare the tables against.

Element text grammar:

    rationals:  "5", "-3", "n/d"
    GF(p):      integer literals, reduced mod p (fractions "a/b" accepted)
    GF(p^k):    polynomials in the generator t, e.g. "t+1", "2*t^2+t+4",
                with one optional sign per term ("-t+1"; not "t--1")

Canonical output is str(x) for rationals ("n" or "n/d" with d > 1), the
least nonnegative residue for GF(p), and a descending-degree polynomial
in t with coefficients reduced mod p for GF(p^k).
"""

from __future__ import annotations

import functools
import re
import sys

from .errors import (
    ContextMismatch,
    DivisionByZero,
    InvalidField,
    ParseError,
    ReducibleModulus,
    ZeroDenominator,
)

_new = object.__new__

try:
    from gmpy2 import mpq as Rational
    ratio = Rational
except ImportError:  # pragma: no cover - gmpy2 is a normal dependency
    from fractions import Fraction
    from math import gcd as _gcd

    class Rational(Fraction):
        """fractions.Fraction with fast paths for + - * / ** == and unary -.

        A path is taken only when the other operand is a Rational or an
        int (for **, an int exponent).  It runs Fraction's own gcd steps
        (Henrici's cross-cancellation) on _numerator and _denominator
        and builds the normalized result with _new, so it skips
        Fraction's operator dispatch and constructor.  Every other case,
        and every other method, is Fraction's: a Fraction operand gives a
        Fraction, and a zero divisor raises Fraction's ZeroDivisionError.
        """

        __slots__ = ()

        def __add__(a, b):
            if type(b) is Rational:
                na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
                g = _gcd(da, db)
                if g == 1:
                    n, d = na * db + da * nb, da * db
                else:
                    s = da // g
                    t = na * (db // g) + nb * s
                    g2 = _gcd(t, g)
                    n, d = (t, s * db) if g2 == 1 else (t // g2, s * (db // g2))
            elif type(b) is int:
                n, d = a._numerator + b * a._denominator, a._denominator
            else:
                return Fraction.__add__(a, b)
            x = _new(Rational)
            x._numerator, x._denominator = n, d
            return x

        def __radd__(a, b):
            return a + b if type(b) is int else Fraction.__radd__(a, b)

        def __sub__(a, b):
            if type(b) is Rational:
                na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
                g = _gcd(da, db)
                if g == 1:
                    n, d = na * db - da * nb, da * db
                else:
                    s = da // g
                    t = na * (db // g) - nb * s
                    g2 = _gcd(t, g)
                    n, d = (t, s * db) if g2 == 1 else (t // g2, s * (db // g2))
            elif type(b) is int:
                n, d = a._numerator - b * a._denominator, a._denominator
            else:
                return Fraction.__sub__(a, b)
            x = _new(Rational)
            x._numerator, x._denominator = n, d
            return x

        def __rsub__(a, b):
            if type(b) is not int:
                return Fraction.__rsub__(a, b)
            x = _new(Rational)
            x._numerator, x._denominator = b * a._denominator - a._numerator, a._denominator
            return x

        def __mul__(a, b):
            if type(b) is Rational:
                na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
                g1 = _gcd(na, db)
                if g1 > 1:
                    na, db = na // g1, db // g1
                g2 = _gcd(nb, da)
                if g2 > 1:
                    nb, da = nb // g2, da // g2
                n, d = na * nb, db * da
            elif type(b) is int:
                g = _gcd(b, a._denominator)
                n, d = a._numerator * (b // g), a._denominator // g
            else:
                return Fraction.__mul__(a, b)
            x = _new(Rational)
            x._numerator, x._denominator = n, d
            return x

        def __rmul__(a, b):
            return a * b if type(b) is int else Fraction.__rmul__(a, b)

        def __truediv__(a, b):
            if type(b) is Rational:
                na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
            elif type(b) is int:
                na, da, nb, db = a._numerator, a._denominator, b, 1
            else:
                return Fraction.__truediv__(a, b)
            if not nb:
                return Fraction.__truediv__(a, b)
            g1 = _gcd(na, nb)
            if g1 > 1:
                na, nb = na // g1, nb // g1
            g2 = _gcd(db, da)
            if g2 > 1:
                da, db = da // g2, db // g2
            n, d = na * db, nb * da
            x = _new(Rational)
            x._numerator, x._denominator = (-n, -d) if d < 0 else (n, d)
            return x

        def __rtruediv__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is not int or not na:
                return Fraction.__rtruediv__(a, b)
            return ratio(b * da, na)

        def __neg__(a):
            x = _new(Rational)
            x._numerator, x._denominator = -a._numerator, a._denominator
            return x

        def __pow__(a, b):
            na, da = a._numerator, a._denominator
            if type(b) is not int or b < 0 and not na:
                return Fraction.__pow__(a, b)
            x = _new(Rational)
            if b >= 0:
                x._numerator, x._denominator = na ** b, da ** b
            elif na > 0:
                x._numerator, x._denominator = da ** -b, na ** -b
            else:
                x._numerator, x._denominator = (-da) ** -b, (-na) ** -b
            return x

        def __eq__(a, b):
            if type(b) is Rational:
                return a._numerator == b._numerator and a._denominator == b._denominator
            if type(b) is int:
                return a._numerator == b and a._denominator == 1
            return Fraction.__eq__(a, b)

        __hash__ = Fraction.__hash__

    def ratio(n, d):
        """The Rational n / d of two ints, normalized by one gcd and built
        with _new, without Fraction's constructor; d = 0 raises
        ZeroDivisionError, as the constructor does."""
        g = _gcd(n, d) if d > 0 else -_gcd(n, d) if d else 0  # n // 0 raises
        x = _new(Rational)
        x._numerator, x._denominator = n // g, d // g
        return x

MAX_EXTENSION_DEGREE = 8
# GF(p^k) with p^k at most this builds tables of its elements and their
# logs when it is made; larger fields always add coefficient-wise,
# multiply by polynomial reduction and divide by Euclid.
TABLE_BOUND = 4096
# Rationals.sample keeps the values of this many drawn pairs: every pair
# at the sampler's default height 12 (25 numerators, 24 denominators).
SAMPLE_CACHE = 1024

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([+-]?\d+))?$")


def _literal_int(digits):
    """int(digits), reporting a literal past Python's limit on the length of
    an integer string (sys.get_int_max_str_digits) as a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits exceeds the "
                         f"limit of {sys.get_int_max_str_digits()}") from None


def _decimal(n):
    """str(n) for an int of any length, joined from 600-digit chunks: each
    stays below the least integer-string limit Python accepts (640)."""
    chunk = 10 ** 600
    sign, n, parts = "-" if n < 0 else "", abs(n), []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(str(low).zfill(600))
    return sign + str(n) + "".join(reversed(parts))


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# psi_13 = PRIME_BOUND (Sorenson and Webster 2017), itself a strong
# pseudoprime to all 13 bases; larger characteristics are not supported.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin test, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        # n is a strong probable prime to base b when b^d = 1 or some
        # b^(d 2^i) = -1 with 0 <= i < s
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    return True


def _require_prime(p):
    if p >= PRIME_BOUND:
        raise InvalidField(f"characteristic {p} is not below {PRIME_BOUND}")
    if not _is_prime(p):
        raise InvalidField(f"{p} is not prime")


class FieldContext:
    """Base class for field contexts: equality and hash by key, and the
    literal dispatch of __call__.  A subclass defines key, _element,
    parse, format and sample (module docstring)."""

    characteristic = None

    def __call__(self, value):
        if isinstance(value, str):
            return self.parse(value)
        return self._element(value)

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    @property
    def zero(self):
        return self(0)

    @property
    def one(self):
        return self(1)

    def label(self):
        raise NotImplementedError

    def __repr__(self):
        return self.label()


class Rationals(FieldContext):
    """The rational numbers, with exact arbitrary-precision arithmetic."""

    characteristic = 0
    key = ("Q",)

    def __init__(self):
        self._samples = {}

    def _element(self, value):
        return Rational(value)

    def label(self):
        return "Q"

    def parse(self, text):
        m = _RATIONAL_RE.match(text.strip())
        if not m:
            raise ParseError(f"not a rational literal: {text!r}")
        num, den = _literal_int(m.group(1)), _literal_int(m.group(2) or "1")
        if den == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return ratio(num, den)

    def format(self, x):
        try:
            return str(x)
        except ValueError:  # past the integer-string limit
            text = _decimal(x.numerator)
            return text if x.denominator == 1 else f"{text}/{_decimal(x.denominator)}"

    def sample(self, rng, height):
        """Uniform numerator and nonzero denominator in [-height, height].

        The first SAMPLE_CACHE distinct (numerator, denominator) draws
        keep their value, and a later draw of the same pair returns it:
        the rng calls and the values are those of a fresh build, and
        the specs a run holds share their entries.
        """
        num = rng.randint(-height, height)
        den = 0
        while den == 0:
            den = rng.randint(-height, height)
        x = self._samples.get((num, den))
        if x is None:
            x = ratio(num, den)
            if len(self._samples) < SAMPLE_CACHE:
                self._samples[num, den] = x
        return x


class _FiniteFieldElement:
    """The operators and text every finite-field element shares: the
    reflected - and / through the class's _coerce, and str and repr
    through the context's format."""

    __slots__ = ()

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __str__(self):
        return self.field.format(self)

    def __repr__(self):
        return f"{self} in {self.field}"


class PrimeFieldElement(_FiniteFieldElement):
    """Element of GF(p), stored as the least nonnegative residue."""

    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ContextMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.field)
        raise ContextMismatch(f"cannot combine {self.field} with {type(other).__name__}")

    # Each operator skips _coerce when other is an element of this very
    # context, and builds its result from the reduced value directly.

    def __add__(self, other):
        field = self.field
        if type(other) is not PrimeFieldElement or other.field is not field:
            other = self._coerce(other)
        x = _new(PrimeFieldElement)
        x.value, x.field = (self.value + other.value) % field.p, field
        return x

    __radd__ = __add__

    def __sub__(self, other):
        field = self.field
        if type(other) is not PrimeFieldElement or other.field is not field:
            other = self._coerce(other)
        x = _new(PrimeFieldElement)
        x.value, x.field = (self.value - other.value) % field.p, field
        return x

    def __mul__(self, other):
        field = self.field
        if type(other) is not PrimeFieldElement or other.field is not field:
            other = self._coerce(other)
        x = _new(PrimeFieldElement)
        x.value, x.field = self.value * other.value % field.p, field
        return x

    __rmul__ = __mul__

    def __truediv__(self, other):
        field = self.field
        if type(other) is not PrimeFieldElement or other.field is not field:
            other = self._coerce(other)
        if other.value == 0:
            raise DivisionByZero(f"division by zero in {field}")
        x = _new(PrimeFieldElement)
        x.value, x.field = self.value * pow(other.value, -1, field.p) % field.p, field
        return x

    def __pow__(self, n):
        if n < 0:
            return (self.field.one / self) ** (-n)
        return PrimeFieldElement(pow(self.value, n, self.field.p), self.field)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.field)

    def __eq__(self, other):
        if type(other) is PrimeFieldElement and other.field is self.field:
            return self.value == other.value
        if isinstance(other, PrimeFieldElement):
            return self.value == other.value and (self.field is other.field
                                                  or self.field == other.field)
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __bool__(self):
        return self.value != 0


class PrimeField(FieldContext):
    """The prime field GF(p)."""

    def __init__(self, p):
        _require_prime(p)
        self.p = self.characteristic = p
        self.key = ("GF", p)

    def _element(self, value):
        if isinstance(value, PrimeFieldElement):
            if value.field != self:
                raise ContextMismatch(f"{self} vs {value.field}")
            return value
        return PrimeFieldElement(value, self)

    def label(self):
        return f"GF({self.p})"

    def parse(self, text):
        m = _RATIONAL_RE.match(text.strip())
        if not m:
            raise ParseError(f"not an element of {self}: {text!r}")
        num = self(_literal_int(m.group(1)))
        if m.group(2) is None:
            return num
        den = _literal_int(m.group(2))
        if den % self.p == 0:
            raise ZeroDenominator(f"denominator vanishes in {self}: {text!r}")
        return num / self(den)

    def format(self, x):
        return str(x.value)

    def sample(self, rng, height=None):
        return PrimeFieldElement(rng.randrange(self.p), self)


# -- polynomial helpers over GF(p), coefficients as int tuples (low first) --

def _poly_trim(c):
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_add(a, b, p):
    """a + b for trimmed coefficient tuples over GF(p)."""
    if len(a) < len(b):
        a, b = b, a
    low = [(x + y) % p for x, y in zip(a, b)]
    # Below len(b) terms may cancel; above it a's coefficients stand.
    if len(a) > len(b):
        return (*low, *a[len(b):])
    return _poly_trim(low)


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by b over GF(p).

    Each step takes the leading coefficient off a, which subtracting
    f * b would set to zero, and updates only the db coefficients below it.
    """
    a = list(a)
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        f = (a.pop() * lead_inv) % p
        if f:
            k = len(a) - db
            q[k] = f
            for i in range(db):
                a[k + i] = (a[k + i] - f * b[i]) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_inv_mod(a, m, p):
    """Inverse of a modulo m over GF(p), via the extended Euclid algorithm."""
    r0, r1 = m, _poly_trim(a)
    s0, s1 = (), (1,)
    while r1:
        q, rem = _poly_divmod(r0, r1, p)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_add(s0, tuple(-c % p for c in _poly_mul(q, s1, p)), p)
    if len(r0) != 1:
        raise DivisionByZero("element is not invertible")
    c = pow(r0[0], -1, p)
    return _poly_trim([x * c % p for x in s0])


# Low-weight irreducible moduli over GF(2); other (p, k) pairs fall back to
# a deterministic search.
_GF2_MODULI = {
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 1, 0, 0, 0, 0, 0, 1),
    8: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def _prime_factors(n):
    """The distinct prime factors of n >= 1 by trial division; n is at most
    TABLE_BOUND or an extension degree."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _digits(idx, p, k):
    """The k base-p digits of idx, lowest first."""
    return tuple(idx // p ** i % p for i in range(k))


def _candidate_moduli(p, k):
    """Monic degree-k polynomials over GF(p) in default-modulus search order."""
    if p == 2 and k in _GF2_MODULI:
        yield _GF2_MODULI[k]
    # Then idx = 0, 1, 2, ... with its base-p digits as the coefficients
    # below t^k.  The first p are the binomials t^k + c; by Lidl and
    # Niederreiter, Thm 3.75, all are reducible when a prime r | k does not
    # divide p - 1, or when 4 | k and p % 4 != 1, so skip them then.
    no_binomial = (any((p - 1) % r for r in _prime_factors(k))
                   or (k % 4 == 0 and p % 4 != 1))
    for idx in range(p if no_binomial else 0, p ** k):
        yield _digits(idx, p, k) + (1,)


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?t(?:\^(\d+))?$|^(\d+)$")


def _reduced(coeffs, field):
    """The element with coefficient tuple coeffs, which must already be
    reduced mod p and trimmed: the field's shared element when it has
    tables, else (past TABLE_BOUND, or while the tables are built) a new
    one."""
    interned = field._interned
    if interned is not None:
        return interned[coeffs]
    x = _new(ExtensionFieldElement)
    x.coeffs, x.field, x.log = coeffs, field, None
    return x


class ExtensionFieldElement(_FiniteFieldElement):
    """Element of GF(p^k), stored as a coefficient tuple (low degree first).

    The field makes its elements (ExtensionField._element, _reduced).  In
    a field with tables every element is one of the shared elements they
    hold, and log is its exponent over the field's primitive element g,
    None only on zero.  In a field past TABLE_BOUND log is always None.
    """

    __slots__ = ("coeffs", "field", "log")

    def _coerce(self, other):
        """other as an element of this very field: an int through the prime
        subfield, an element of an equal context by the field's _element."""
        field = self.field
        if isinstance(other, int):
            subfield = field._subfield
            return field(other) if subfield is None else subfield[other % field.p]
        if isinstance(other, ExtensionFieldElement):
            return field(other)
        raise ContextMismatch(f"cannot combine {field} with {type(other).__name__}")

    # The operators take the same fast path as PrimeFieldElement's.  When
    # both operands carry a log i and j, a product is elements[i + j], a
    # quotient elements[i - j], a sum a Zech lookup, g^i + g^j =
    # g^(i + Z(j - i)), and a difference adds -g^j = g^(j + h), where
    # g^h = -1.  In a tabled field an operand without a log is zero;
    # untabled fields, and a tabled one while it builds its tables, take
    # the coefficient route.

    def __add__(self, other):
        field = self.field
        if type(other) is not ExtensionFieldElement or other.field is not field:
            other = self._coerce(other)
        i, j = self.log, other.log
        if i is None or j is None:
            if field._interned is None:
                return _reduced(_poly_add(self.coeffs, other.coeffs, field.p), field)
            return other if i is None else self
        z = field._zech[j - i]
        return field._subfield[0] if z is None else field._elements[i + z]

    __radd__ = __add__

    def __neg__(self):
        field, i = self.field, self.log
        if i is None:
            p = field.p
            return _reduced(tuple(-c % p for c in self.coeffs), field)
        return field._elements[i + field._log_minus_one]

    def __sub__(self, other):
        field = self.field
        if type(other) is not ExtensionFieldElement or other.field is not field:
            other = self._coerce(other)
        i, j = self.log, other.log
        if i is None or j is None:
            if field._interned is None:
                return self + -other
            return -other if i is None else self
        z = field._zech[j + field._log_minus_one - i]
        return field._subfield[0] if z is None else field._elements[i + z]

    def __mul__(self, other):
        field = self.field
        if type(other) is not ExtensionFieldElement or other.field is not field:
            other = self._coerce(other)
        i, j = self.log, other.log
        if i is None or j is None:
            if field._interned is None:
                p = field.p
                return _reduced(_poly_divmod(_poly_mul(self.coeffs, other.coeffs, p),
                                             field.modulus, p)[1], field)
            return self if i is None else other
        return field._elements[i + j]

    __rmul__ = __mul__

    def inverse(self):
        field, i = self.field, self.log
        if i is None:
            if not self.coeffs:
                raise DivisionByZero(f"division by zero in {field}")
            return _reduced(_poly_inv_mod(self.coeffs, field.modulus, field.p), field)
        return field._elements[-i]

    def __truediv__(self, other):
        field = self.field
        if type(other) is not ExtensionFieldElement or other.field is not field:
            other = self._coerce(other)
        i, j = self.log, other.log
        if j is None:
            return self * other.inverse()
        if i is None:
            return self
        return field._elements[i - j]

    def __pow__(self, n):
        field, i = self.field, self.log
        if i is not None:
            return field._elements[i * n % field._units]
        if n < 0:
            return self.inverse() ** (-n)
        acc = field.one
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if type(other) is ExtensionFieldElement and other.field is self.field:
            return self.coeffs == other.coeffs
        if isinstance(other, ExtensionFieldElement):
            return self.coeffs == other.coeffs and (self.field is other.field
                                                    or self.field == other.field)
        if isinstance(other, int):
            return self.coeffs == _poly_trim((other % self.field.p,))
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.modulus, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)


class ExtensionField(FieldContext):
    """The extension field GF(p^k) with 2 <= k <= 8 and an irreducible modulus."""

    def __init__(self, p, k, modulus=None):
        _require_prime(p)
        if not 2 <= k <= MAX_EXTENSION_DEGREE:
            raise InvalidField(f"extension degree {k} outside 2..{MAX_EXTENSION_DEGREE}")
        self.p = self.characteristic = p
        self.k = k
        # Until the tables exist every operation takes the coefficient
        # route, so Rabin's test and the table build use it.
        self._elements = self._zech = self._interned = self._subfield = None
        # The order q - 1 of the unit group, and log(-1) over any primitive
        # element: -1 = 1 in characteristic 2, else -1 is the one element
        # of order 2.
        self._units = p ** k - 1
        self._log_minus_one = 0 if p == 2 else self._units // 2
        if modulus is None:
            # GF(p) has an irreducible monic of every degree, so this ends.
            for self.modulus in _candidate_moduli(p, k):
                if self._modulus_irreducible():
                    break
        else:
            self.modulus = tuple(c % p for c in modulus)
            if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
                raise InvalidField(f"modulus must be monic of degree {k}")
            if not self._modulus_irreducible():
                raise ReducibleModulus(f"modulus {self.modulus} is reducible over GF({p})")
        self.key = ("GF", p, k, self.modulus)
        if p ** k <= TABLE_BOUND:
            self._elements, self._zech, self._interned, self._subfield = self._log_tables()

    def _modulus_irreducible(self):
        """Rabin's test in GF(p)[t]/(modulus): t^(p^k) = t, and for each prime
        r | k, t^(p^(k/r)) - t is a unit."""
        p, k, t = self.p, self.k, self.generator
        if t ** (p ** k) != t:
            return False
        try:
            for r in _prime_factors(k):
                (t ** (p ** (k // r)) - t).inverse()
        except DivisionByZero:
            return False
        return True

    def _log_tables(self):
        """(elements, zech, interned, subfield) for a primitive element g,
        by the polynomial route.

        g is the first element, in base-p digit order, whose order is
        q - 1: g^((q-1)/r) != 1 for each prime r | q - 1.  elements lists
        g^0 .. g^(q-2), each with its exponent as its log, twice over, so
        that elements[i + j] (a product) and elements[i - j] (a quotient,
        negative indices wrapping) need no reduction mod q - 1.  zech lists
        the Zech logarithms Z(n) = log(1 + g^n), None where 1 + g^n = 0,
        for n = 0 .. q - 2 twice over, so that the indices j - i and
        j + log(-1) - i of a sum and a difference need no reduction either.
        interned maps every coefficient tuple to its element, the empty
        one to a zero of log None, and subfield lists the elements 0 .. p - 1.
        """
        p, k, order = self.p, self.k, self._units
        factors = _prime_factors(order)
        one = self.one
        # The constants (idx < p) lie in GF(p)*, of order p - 1 < q - 1.
        for idx in range(p, order + 1):
            g = _reduced(_poly_trim(_digits(idx, p, k)), self)
            if all(g ** (order // r) != one for r in factors):
                break
        elements, x = [], one
        for n in range(order):
            x.log = n
            elements.append(x)
            x = x * g
        interned = {x.coeffs: x for x in elements}
        interned[()] = zero = _reduced((), self)
        zech = [interned[_poly_add((1,), x.coeffs, p)].log for x in elements]
        subfield = [zero] + [interned[(c,)] for c in range(1, p)]
        return elements + elements, zech + zech, interned, subfield

    def _element(self, value):
        """The element of an element of this field, an int, or a coefficient
        sequence (low degree first), reduced mod p and, when longer than k,
        by the modulus."""
        if isinstance(value, ExtensionFieldElement):
            if value.field != self:
                raise ContextMismatch(f"{self} vs {value.field}")
            return value if value.field is self else _reduced(value.coeffs, self)
        p = self.p
        if isinstance(value, int):
            if self._subfield is not None:
                return self._subfield[value % p]
            value = (value,)
        coeffs = _poly_trim(tuple(c % p for c in value))
        if len(coeffs) > self.k:
            coeffs = _poly_divmod(coeffs, self.modulus, p)[1]
        return _reduced(coeffs, self)

    @property
    def generator(self):
        return self((0, 1))

    def label(self):
        return f"GF({self.p}^{self.k})"

    def parse(self, text):
        text = text.strip().replace(" ", "")
        if not text:
            raise ParseError("empty element literal")
        coeffs = [0] * self.k
        # One piece per term, each an optional sign and the term; the last
        # match is the empty one at the end of the text.
        for piece in re.findall(r"[+-]?[^+-]*", text)[:-1]:
            term = piece.lstrip("+-")
            m = _TERM_RE.match(term)
            if not m:
                raise ParseError(f"bad term {term!r} in {text!r}")
            sign = -1 if piece[0] == "-" else 1
            if m.group(3) is not None:
                c, e = _literal_int(m.group(3)), 0
            else:
                c = _literal_int(m.group(1)) if m.group(1) else 1
                e = _literal_int(m.group(2)) if m.group(2) else 1
            if e >= self.k:
                raise ParseError(f"degree {e} term exceeds field degree in {text!r}")
            coeffs[e] = (coeffs[e] + sign * c) % self.p
        return self(coeffs)

    def format(self, x):
        if not x.coeffs:
            return "0"
        terms = []
        for e in range(len(x.coeffs) - 1, -1, -1):
            c = x.coeffs[e]
            if c == 0:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
        return "+".join(terms)

    def sample(self, rng, height=None):
        return self([rng.randrange(self.p) for _ in range(self.k)])


# Digit counts are capped so that int() never meets Python's limit on the
# length of an integer string; any p past PRIME_BOUND is rejected anyway.
_FIELD_RE = re.compile(r"^GF\((\d{1,99})(?:\^(\d{1,99}))?\)$")


@functools.lru_cache(maxsize=64)
def parse_field(label):
    """Parse a field label: Q, GF(p) or GF(p^k).

    The same label gives the same context, so an extension field's
    Rabin test and table build run once and its tables serve every later
    caller.  Tables change how a product is found, never its value.
    """
    label = label.strip()
    if label in ("Q", "QQ"):
        return Rationals()
    m = _FIELD_RE.match(label)
    if not m:
        raise ParseError(f"bad field label {label!r}")
    p = int(m.group(1))
    if m.group(2) is None or int(m.group(2)) == 1:
        return PrimeField(p)
    return ExtensionField(p, int(m.group(2)))


_ARITH = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def field_arith(a, b, op):
    """Apply one of add/sub/mul/div to two elements of the same context."""
    try:
        fn = _ARITH[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}") from None
    try:
        return fn(a, b)
    except ZeroDivisionError as e:
        raise DivisionByZero(str(e) or "division by zero") from None
    except TypeError as e:
        raise ContextMismatch(str(e)) from None


def sample_element(ctx, rng, height):
    """Draw one element; uniform residues for finite fields, bounded-height rationals for Q."""
    if height < 1:
        raise ValueError("height bound must be >= 1")
    return ctx.sample(rng, height)
