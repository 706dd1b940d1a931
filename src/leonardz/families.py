"""The family registry: one Family record per LeonardType.

FAMILIES holds everything the package knows about each of the 13
parameter-array families: its parameters, the field characteristics and
campaign cells it admits, its constraint clauses, its array builder, its
interior-identity factor, its rows of the classification tables (nonzero
space, dimension 2, self-duality, spin) and the draw order of its
sampler.  Adding a family means adding a LeonardType member and one
record here; parray, analysis, sampling and campaign only look records up.

Eleven families are the q-Racah or the Racah family or one of their
limits (Terwilliger, Des. Codes Cryptogr. 34 (2005)).  Their arrays and
factors come from two forms, _q_form and _racah_form, each defined once,
and each of their records gives only a coordinate map into its form.
The maps are exact under the families' own clauses: by the r1r2-product
clause (r1 r2 = s s* q^(d+1)) the q-Racah split sequences depend on r1, r2
only through B = h (r1 + r2), and by the r-sum clause
(r1 + r2 = s + s* + d + 1) the Racah ones only through C = h h* r1 r2.
Bannai/Ito and the orphan keep builders of their own.

The registry is a module of its own, apart from parray, so that neither
module is large: CPython compiles each module from source in one piece,
and the largest one sets the peak memory of an import.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import InvalidSpec
from .exactfield import PrimeField


class LeonardType(str, Enum):
    Q_RACAH = "q-racah"
    Q_HAHN = "q-hahn"
    DUAL_Q_HAHN = "dual-q-hahn"
    QUANTUM_Q_KRAWTCHOUK = "quantum-q-krawtchouk"
    Q_KRAWTCHOUK = "q-krawtchouk"
    AFFINE_Q_KRAWTCHOUK = "affine-q-krawtchouk"
    DUAL_Q_KRAWTCHOUK = "dual-q-krawtchouk"
    RACAH = "racah"
    HAHN = "hahn"
    DUAL_HAHN = "dual-hahn"
    KRAWTCHOUK = "krawtchouk"
    BANNAI_ITO = "bannai-ito"
    ORPHAN = "orphan"

    @classmethod
    def from_string(cls, text):
        key = text.strip().lower().replace("_", "-").replace(" ", "-")
        for t in cls:
            if t.value == key:
                return t
        raise InvalidSpec([Violation("type", f"unknown type {text!r}")])


ALL_TYPES = tuple(LeonardType)


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str


# ---------------------------------------------------------------------------
# the registry record and its parts
#
# Value functions take (p, d, f): the parameter dict, the diameter and the
# field context.


@dataclass(frozen=True)
class Characteristic:
    """The field characteristics a family admits: allows(char, d)."""

    need: str
    allows: Callable


@dataclass(frozen=True)
class Required:
    """Clause `clause` fails, with `detail`, unless lhs == rhs."""

    clause: str
    detail: str
    lhs: Callable
    rhs: Callable

    def violations(self, p, d, f):
        if self.lhs(p, d, f) != self.rhs(p, d, f):
            yield self.clause, self.detail


@dataclass(frozen=True)
class Forbidden:
    """Clause `clause` fails once for each index i and term hitting target(p)(i).

    indices(d) gives the indices, and target(p) the map from index to
    target, built once per check.  A term is (detail, value) or
    (detail, value, applies(d, i)); its detail is formatted with the index
    i and the target t.
    """

    clause: str
    indices: Callable
    target: Callable
    terms: tuple

    def violations(self, p, d, f):
        terms = [(detail, value(p, d, f), when) for detail, value, *when in self.terms]
        target = self.target(p)
        for i in self.indices(d):
            t = target(i)
            for detail, value, when in terms:
                if (not when or when[0](d, i)) and value == t:
                    yield self.clause, detail.format(i=i, t=t)


@dataclass(frozen=True)
class Row:
    """A table row: equations target == value(p, d, f) that hold together.

    Table predicates test a row; the sampler forces it by assigning each
    target instead of drawing it.  A row without equations always holds.
    A named nonzero-space row is the condition id "<family>:<name>" and the
    sampling mode "z:<name>"; its relation gives the coefficients (u, v) of
    u*a_minus = v*a_plus.  A mirrored row names r2 and is sampled as its
    image on r1, with r1 and r2 exchanged afterwards (the r-constraint of
    each such family is symmetric in r1 and r2).  drawable(d, f), when
    given, says whether the sampler can meet the row over the field f; it
    bounds the sampling modes only, not where the row holds.
    """

    name: str | None = None
    eqs: tuple = ()
    relation: Callable | None = None
    when: Callable | None = None
    mirrored: bool = False
    drawable: Callable | None = None

    def exists(self, d):
        return self.when is None or self.when(d)

    def holds(self, p, d, f):
        return self.exists(d) and all(p[target] == value(p, d, f)
                                      for target, value in self.eqs)


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one family.

    params          parameter names, in serialization order
    build           spec -> (theta, theta_star, phi1, phi2); from a form
                    (_q_form, _racah_form) or the family's own builder
    factor          (p, d, f) -> the interior-identity factor; from the same
                    form, or written out in the record
    draws           the sampler's draw order; "name?" may be drawn as zero
    derive          (name, value) set after the draws, or None
    characteristic  the admitted characteristics; None admits every field
    nonzero         parameters that must be nonzero; None means all
    guard           parameters whose vanishing skips the remaining clauses
    clauses         Required and Forbidden rows, in report order
    z_rows          rows for Z != 0 (an unnamed row: the family's own id)
    dim2            rows for dim Z = 2
    self_dual       the row for self-duality (with theta0 = theta_star0)
    spin            rows for spin, read on self-dual specs
    fields          field labels of the campaign cells
    diameter        the only admitted diameter, or None
    """

    params: tuple
    build: Callable
    factor: Callable
    draws: tuple
    derive: tuple | None = None
    characteristic: Characteristic | None = None
    nonzero: tuple | None = None
    guard: tuple = ()
    clauses: tuple = ()
    z_rows: tuple = ()
    dim2: tuple = ()
    self_dual: Row | None = None
    spin: tuple = ()
    fields: tuple = ("Q",)
    diameter: int | None = None

    @property
    def spins_when_self_dual(self):
        return any(not row.eqs for row in self.spin)


def _param(name):
    return lambda p, d, f: p[name]


def _scaled(c, name):
    return lambda p, d, f: c * p[name]


def _square(name):
    return lambda p, d, f: p[name] * p[name]


def _one(p, d, f):
    return f.one


def _to_d(d):
    return range(1, d + 1)


def _to_2d(d):
    return range(2, 2 * d + 1)


def _once(d):
    return (0,)


def _q_power_unit(p):
    """Targets of the q-power rows: value * q^i == 1 exactly when
    value == q^-i, the powers of one inverse of q."""
    inv = 1 / p["q"]
    return lambda i: inv ** i


def _minus(p):
    return lambda i: -i


def _q_powers(clause, indices, *terms):
    return Forbidden(clause, indices, _q_power_unit, terms)


def _offsets(clause, indices, *terms):
    return Forbidden(clause, indices, _minus, terms)


def _q_relation(r, q, d):
    return q ** d * (r + 1) * (r * q + 1), (r * q ** d + 1) * (r * q ** (d + 1) + 1)


def _bannai_ito_dim2_drawable(d, f):
    """Whether the sampler can meet the Bannai-Ito dim2 row over f.

    The row sets s = d + 1 and s_star = -2 r1, and the even-offset clause
    keeps both away from 2i, i = 1..d.  In characteristic p <= d, d + 1 is
    some 2i.  At p = d + 1 every nonzero element of GF(p) is some -i, and
    r1 is drawn nonzero, so only an r1 outside the prime field is left.
    """
    p = f.characteristic
    return p == 0 or p > d + 1 or (p == d + 1 and not isinstance(f, PrimeField))


_ABOVE_D = Characteristic("0 or a prime > d", lambda c, d: c == 0 or c > d)
_SELF_DUAL_H = ("h_star", _param("h"))
_SELF_DUAL_S = ("s_star", _param("s"))
_S_DIM2_Q = ("s", lambda p, d, f: -(p["q"] ** (-d - 1)))


# ---------------------------------------------------------------------------
# array builders: the two forms, and the two families outside them


def _q_form(coords):
    """The build and factor fields of a family given by q-form coordinates.

    coords(p, d, f) gives (h, H, h*, s*, B).  With q = p["q"] and
    g_i = h* q^(1-2i) (1 - q^i)(1 - q^(i-d-1)):

        theta_i      = theta0 + (1 - q^i) q^-i (h - H q^(i+1))
        theta_star_i = theta_star0 + h* (1 - q^i) q^-i (1 - s* q^(i+1))
        phi1_i       = g_i (h - B q^i + H s* q^(d+1+2i))
        phi2_i       = g_i (H q^(d+1) - B q^i + h s* q^(2i))
        factor       = q^(-3-d) (q-1)^4 (q^2-1)^2 h*^2
                       (h^2 s* - B^2 + H s* q^(d+1) (2h + H q^(d+1)))
    """

    def build(spec):
        d, f, q = spec.d, spec.field, spec.param("q")
        h, big_h, hs, ss, b = coords(spec.params, d, f)
        # q^i and q^-i for i = 0..d+1, from one inversion; then
        # (1 - q^i) q^-i = q^-i - 1 and g_i = h* q (q^-i - 1)(q^-i - q^(-d-1))
        up, down, q_inv = [f.one], [f.one], f.one / q
        for _ in range(d + 1):
            up.append(up[-1] * q)
            down.append(down[-1] * q_inv)
        big_hq, ssq, hsq, hss = big_h * q, ss * q, hs * q, h * ss
        big_h_top, big_h_ss_top = big_h * up[-1], big_h * ss * up[-1]
        theta = [spec.theta0 + (v - 1) * (h - big_hq * u) for u, v in zip(up, down[:-1])]
        theta_star = [spec.theta_star0 + hs * (v - 1) * (1 - ssq * u)
                      for u, v in zip(up, down[:-1])]
        phi1, phi2 = [], []
        for u, v in zip(up[1:-1], down[1:-1]):
            g, u2, bu = hsq * (v - 1) * (v - down[-1]), u * u, b * u
            phi1.append(g * (h - bu + big_h_ss_top * u2))
            phi2.append(g * (big_h_top - bu + hss * u2))
        return theta, theta_star, phi1, phi2

    def factor(p, d, f):
        q = p["q"]
        h, big_h, hs, ss, b = coords(p, d, f)
        top = q ** (d + 1)
        return (q ** (-3 - d) * (q - 1) ** 4 * (q * q - 1) ** 2 * hs * hs
                * (h * h * ss - b * b + big_h * ss * top * (2 * h + big_h * top)))

    return {"build": build, "factor": factor}


def _racah_form(coords):
    """The build and factor fields of a family given by Racah-form coordinates.

    coords(p, d, f) gives (h, S, h*, S*, C).  With
    b = h* S + h S* + h h* (d+1):

        theta_i      = theta0 + i (h (i+1) + S)
        theta_star_i = theta_star0 + i (h* (i+1) + S*)
        phi1_i       = i (i-d-1) (h h* i^2 + b i + C)
        phi2_i       = phi1_i - i (i-d-1) (S + h (d+1)) (2 h* i + S*)
        factor       = 4 ((h S*)^2 - 2 h S* b + 4 h h* C)
    """

    def coordinates(p, d, f):
        h, s, hs, ss, c = coords(p, d, f)
        return h, s, hs, ss, c, hs * s + h * ss + h * hs * (d + 1)

    def build(spec):
        d = spec.d
        h, s, hs, ss, c, b = coordinates(spec.params, d, spec.field)
        hhs, shift = h * hs, s + h * (d + 1)
        theta = [spec.theta0 + i * (h * (i + 1) + s) for i in range(d + 1)]
        theta_star = [spec.theta_star0 + i * (hs * (i + 1) + ss) for i in range(d + 1)]
        phi1 = [i * (i - d - 1) * ((hhs * i + b) * i + c) for i in range(1, d + 1)]
        phi2 = [x - i * (i - d - 1) * shift * (2 * hs * i + ss)
                for i, x in enumerate(phi1, 1)]
        return theta, theta_star, phi1, phi2

    def factor(p, d, f):
        h, s, hs, ss, c, b = coordinates(p, d, f)
        return 4 * ((h * ss) ** 2 - 2 * h * ss * b + 4 * h * hs * c)

    return {"build": build, "factor": factor}


def _build_bannai_ito(spec):
    d = spec.d
    h, hs = spec.param("h"), spec.param("h_star")
    s, ss = spec.param("s"), spec.param("s_star")
    r1, r2 = spec.param("r1"), spec.param("r2")
    theta = []
    theta_star = []
    for i in range(d + 1):
        sgn = 1 if i % 2 == 0 else -1
        theta.append(spec.theta0 + h * (s - 1 + sgn * (1 - s + 2 * i)))
        theta_star.append(spec.theta_star0 + hs * (ss - 1 + sgn * (1 - ss + 2 * i)))
    phi1 = []
    phi2 = []
    for i in range(1, d + 1):
        i_even = i % 2 == 0
        if d % 2 == 0:
            if i_even:
                phi1.append(-4 * h * hs * i * (i + r1))
                phi2.append(4 * h * hs * i * (i - ss - r1))
            else:
                phi1.append(-4 * h * hs * (i - d - 1) * (i + r2))
                phi2.append(4 * h * hs * (i - d - 1) * (i - ss - r2))
        else:
            if i_even:
                phi1.append(-4 * h * hs * i * (i - d - 1))
                phi2.append(-4 * h * hs * i * (i - d - 1))
            else:
                phi1.append(-4 * h * hs * (i + r1) * (i + r2))
                phi2.append(-4 * h * hs * (i - ss - r1) * (i - ss - r2))
    return theta, theta_star, phi1, phi2


def _build_orphan(spec):
    h, hs = spec.param("h"), spec.param("h_star")
    s, ss, r = spec.param("s"), spec.param("s_star"), spec.param("r")
    theta = [spec.theta0, spec.theta0 + h * (s + 1), spec.theta0 + h,
             spec.theta0 + h * s]
    theta_star = [spec.theta_star0, spec.theta_star0 + hs * (ss + 1),
                  spec.theta_star0 + hs, spec.theta_star0 + hs * ss]
    phi1 = [h * hs * r, h * hs, h * hs * (r + s + ss)]
    phi2 = [h * hs * (r + s + s * ss), h * hs, h * hs * (r + ss + s * ss)]
    return theta, theta_star, phi1, phi2


# ---------------------------------------------------------------------------
# the registry


FAMILIES = {
    LeonardType.Q_RACAH: Family(
        params=("q", "h", "h_star", "s", "s_star", "r1", "r2"),
        **_q_form(lambda p, d, f: (p["h"], p["h"] * p["s"], p["h_star"], p["s_star"],
                                   p["h"] * (p["r1"] + p["r2"]))),
        draws=("q", "h", "r1", "h_star", "s", "s_star"),
        derive=("r2", lambda p, d, f: p["s"] * p["s_star"] * p["q"] ** (d + 1) / p["r1"]),
        guard=("q", "r1", "r2", "s_star"),
        clauses=(
            Required("r1r2-product", "r1*r2 != s*s_star*q^(d+1)",
                     lambda p, d, f: p["r1"] * p["r2"],
                     lambda p, d, f: p["s"] * p["s_star"] * p["q"] ** (d + 1)),
            _q_powers("q-power-nonunit", _to_d,
                      ("q^{i} == 1", _one),
                      ("r1*q^{i} == 1", _param("r1")),
                      ("r2*q^{i} == 1", _param("r2")),
                      ("s_star/r1*q^{i} == 1", lambda p, d, f: p["s_star"] / p["r1"]),
                      ("s_star/r2*q^{i} == 1", lambda p, d, f: p["s_star"] / p["r2"])),
            _q_powers("s-power-nonunit", _to_2d,
                      ("s*q^{i} == 1", _param("s")),
                      ("s_star*q^{i} == 1", _param("s_star"))),
        ),
        z_rows=(
            Row("s_star=r1^2", (("s_star", _square("r1")),),
                lambda p, d, f: _q_relation(p["r1"], p["q"], d)),
            Row("s_star=r2^2", (("s_star", _square("r2")),),
                lambda p, d, f: _q_relation(p["r2"], p["q"], d), mirrored=True),
        ),
        # either r may carry the square: the family is symmetric in r1, r2
        dim2=(Row(eqs=(("s_star", _square("r1")), _S_DIM2_Q)),
              Row(eqs=(("s_star", _square("r2")), _S_DIM2_Q))),
        self_dual=Row(eqs=(_SELF_DUAL_H, _SELF_DUAL_S)),
        spin=(Row(eqs=(("s", _square("r1")),)), Row(eqs=(("s", _square("r2")),))),
    ),
    LeonardType.Q_HAHN: Family(
        params=("q", "h", "h_star", "s_star", "r"),
        **_q_form(lambda p, d, f: (p["h"], f.zero, p["h_star"], p["s_star"],
                                   p["h"] * p["r"])),
        draws=("q", "h", "h_star", "r", "s_star"),
        guard=("q", "r"),
        clauses=(
            _q_powers("q-power-nonunit", _to_d,
                      ("q^{i} == 1", _one),
                      ("r*q^{i} == 1", _param("r")),
                      ("s_star*q^{i}/r == 1", lambda p, d, f: p["s_star"] / p["r"])),
            _q_powers("s-power-nonunit", _to_2d, ("s_star*q^{i} == 1", _param("s_star"))),
        ),
        z_rows=(Row("s_star=r^2", (("s_star", _square("r")),),
                    lambda p, d, f: _q_relation(p["r"], p["q"], d)),),
    ),
    LeonardType.DUAL_Q_HAHN: Family(
        params=("q", "h", "h_star", "s", "r"),
        **_q_form(lambda p, d, f: (p["h"], p["h"] * p["s"], p["h_star"], f.zero,
                                   p["h"] * p["r"])),
        draws=("q", "h", "h_star", "s", "r"),
        guard=("q", "r"),
        clauses=(
            _q_powers("q-power-nonunit", _to_d,
                      ("q^{i} == 1", _one),
                      ("r*q^{i} == 1", _param("r")),
                      ("s*q^{i}/r == 1", lambda p, d, f: p["s"] / p["r"])),
            _q_powers("s-power-nonunit", _to_2d, ("s*q^{i} == 1", _param("s"))),
        ),
    ),
    LeonardType.QUANTUM_Q_KRAWTCHOUK: Family(
        params=("q", "h_star", "s", "r"),
        **_q_form(lambda p, d, f: (f.zero, p["s"], p["h_star"], f.zero, p["r"])),
        draws=("q", "h_star", "s", "r"),
        guard=("q", "r"),
        clauses=(
            _q_powers("q-power-nonunit", _to_d,
                      ("q^{i} == 1", _one),
                      ("s*q^{i}/r == 1", lambda p, d, f: p["s"] / p["r"])),
        ),
    ),
    LeonardType.Q_KRAWTCHOUK: Family(
        params=("q", "h", "h_star", "s_star"),
        **_q_form(lambda p, d, f: (p["h"], f.zero, p["h_star"], p["s_star"], f.zero)),
        draws=("q", "h", "h_star", "s_star"),
        guard=("q",),
        clauses=(
            _q_powers("q-power-nonunit", _to_d, ("q^{i} == 1", _one)),
            _q_powers("s-power-nonunit", _to_2d, ("s_star*q^{i} == 1", _param("s_star"))),
        ),
    ),
    LeonardType.AFFINE_Q_KRAWTCHOUK: Family(
        params=("q", "h", "h_star", "r"),
        **_q_form(lambda p, d, f: (p["h"], f.zero, p["h_star"], f.zero,
                                   p["h"] * p["r"])),
        draws=("h", "h_star", "q", "r"),
        guard=("q",),
        clauses=(
            _q_powers("q-power-nonunit", _to_d,
                      ("q^{i} == 1", _one), ("r*q^{i} == 1", _param("r"))),
        ),
        self_dual=Row(eqs=(_SELF_DUAL_H,)),
    ),
    LeonardType.DUAL_Q_KRAWTCHOUK: Family(
        params=("q", "h", "h_star", "s"),
        **_q_form(lambda p, d, f: (p["h"], p["h"] * p["s"], p["h_star"], f.zero, f.zero)),
        draws=("q", "s", "h", "h_star"),
        guard=("q",),
        clauses=(
            _q_powers("q-power-nonunit", _to_d, ("q^{i} == 1", _one)),
            _q_powers("s-power-nonunit", _to_2d, ("s*q^{i} == 1", _param("s"))),
        ),
        z_rows=(Row(relation=lambda p, d, f: (p["q"] ** d, f.one)),),
        dim2=(Row(eqs=(_S_DIM2_Q,)),),
    ),
    LeonardType.RACAH: Family(
        params=("h", "h_star", "s", "s_star", "r1", "r2"),
        **_racah_form(lambda p, d, f: (p["h"], p["h"] * p["s"], p["h_star"],
                                       p["h_star"] * p["s_star"],
                                       p["h"] * p["h_star"] * p["r1"] * p["r2"])),
        draws=("h", "r1", "h_star", "s?", "s_star?"),
        derive=("r2", lambda p, d, f: p["s"] + p["s_star"] + d + 1 - p["r1"]),
        characteristic=_ABOVE_D,
        nonzero=("h", "h_star"),
        clauses=(
            Required("r-sum", "r1 + r2 != s + s_star + d + 1",
                     lambda p, d, f: p["r1"] + p["r2"],
                     lambda p, d, f: p["s"] + p["s_star"] + d + 1),
            _offsets("integer-offset", _to_d,
                     ("r1 == {t}", _param("r1")),
                     ("r2 == {t}", _param("r2")),
                     ("s_star-r1 == {t}", lambda p, d, f: p["s_star"] - p["r1"]),
                     ("s_star-r2 == {t}", lambda p, d, f: p["s_star"] - p["r2"])),
            _offsets("s-offset", _to_2d,
                     ("s == {t}", _param("s")), ("s_star == {t}", _param("s_star"))),
        ),
        z_rows=(
            Row("s_star=2r1", (("s_star", _scaled(2, "r1")),),
                lambda p, d, f: (f.one, f.one)),
            Row("s_star=2r2", (("s_star", _scaled(2, "r2")),),
                lambda p, d, f: (f.one, f.one), mirrored=True),
        ),
        self_dual=Row(eqs=(_SELF_DUAL_H, _SELF_DUAL_S)),
        spin=(Row(eqs=(("s", _scaled(2, "r1")),)), Row(eqs=(("s", _scaled(2, "r2")),))),
    ),
    LeonardType.HAHN: Family(
        params=("h_star", "s", "s_star", "r"),
        **_racah_form(lambda p, d, f: (f.zero, p["s"], p["h_star"],
                                       p["h_star"] * p["s_star"],
                                       p["h_star"] * p["s"] * p["r"])),
        draws=("h_star", "s", "r?", "s_star?"),
        characteristic=_ABOVE_D,
        nonzero=("h_star", "s"),
        clauses=(
            _offsets("integer-offset", _to_d,
                     ("r == {t}", _param("r")),
                     ("s_star-r == {t}", lambda p, d, f: p["s_star"] - p["r"])),
            _offsets("s-offset", _to_2d, ("s_star == {t}", _param("s_star"))),
        ),
        z_rows=(Row(relation=lambda p, d, f: (
            p["s_star"] * (p["s_star"] + 2),
            (p["s_star"] + 2 * d) * (p["s_star"] + 2 * d + 2))),),
        dim2=(Row(eqs=(("s_star", _scaled(2, "r")),)),),
    ),
    LeonardType.DUAL_HAHN: Family(
        params=("h", "s", "s_star", "r"),
        **_racah_form(lambda p, d, f: (p["h"], p["h"] * p["s"], f.zero, p["s_star"],
                                       p["h"] * p["s_star"] * p["r"])),
        draws=("h", "s?", "s_star", "r?"),
        characteristic=_ABOVE_D,
        nonzero=("h", "s_star"),
        clauses=(
            _offsets("integer-offset", _to_d,
                     ("r == {t}", _param("r")),
                     ("s-r == {t}", lambda p, d, f: p["s"] - p["r"])),
            _offsets("s-offset", _to_2d, ("s == {t}", _param("s"))),
        ),
    ),
    LeonardType.KRAWTCHOUK: Family(
        params=("s", "s_star", "r"),
        **_racah_form(lambda p, d, f: (f.zero, p["s"], f.zero, p["s_star"], p["r"])),
        draws=("s", "s_star", "r"),
        characteristic=_ABOVE_D,
        clauses=(
            Forbidden("r-product", _once, lambda p: lambda i: p["r"],
                      (("r == s*s_star", lambda p, d, f: p["s"] * p["s_star"]),)),
        ),
        z_rows=(Row(relation=lambda p, d, f: (f.one, f.one)),),
        dim2=(Row(eqs=(("r", lambda p, d, f: p["s"] * p["s_star"] / 2),)),),
        self_dual=Row(eqs=(_SELF_DUAL_S,)),
        spin=(Row(),),
    ),
    LeonardType.BANNAI_ITO: Family(
        params=("h", "h_star", "s", "s_star", "r1", "r2"),
        build=_build_bannai_ito,
        factor=lambda p, d, f: ((64 if d % 2 == 1 else -64)
                                * p["h"] * p["h"] * p["h_star"] * p["h_star"]
                                * (p["s_star"] + 2 * p["r1"])
                                * (p["s_star"] + 2 * p["r2"])),
        draws=("h", "r1", "h_star", "s?", "s_star?"),
        derive=("r2", lambda p, d, f: -p["s"] - p["s_star"] + d + 1 - p["r1"]),
        characteristic=Characteristic(
            "0 or an odd prime > d/2", lambda c, d: c == 0 or (c != 2 and 2 * c > d)),
        nonzero=("h", "h_star"),
        clauses=(
            Required("r-sum", "r1 + r2 != -s - s_star + d + 1",
                     lambda p, d, f: p["r1"] + p["r2"],
                     lambda p, d, f: -p["s"] - p["s_star"] + d + 1),
            _offsets("integer-offset", _to_d,
                     ("r1 == {t}", _param("r1"), lambda d, i: (d - i) % 2 == 0),
                     ("-s_star-r1 == {t}", lambda p, d, f: -p["s_star"] - p["r1"],
                      lambda d, i: (d - i) % 2 == 0),
                     ("r2 == {t}", _param("r2"), lambda d, i: i % 2 == 1),
                     ("-s_star-r2 == {t}", lambda p, d, f: -p["s_star"] - p["r2"],
                      lambda d, i: i % 2 == 1)),
            Forbidden("even-offset", _to_d, lambda p: lambda i: 2 * i,
                      (("s == {t}", _param("s")), ("s_star == {t}", _param("s_star")))),
        ),
        z_rows=(
            Row("s_star=-2r1", (("s_star", _scaled(-2, "r1")),),
                lambda p, d, f: ((p["r1"] + 1, p["r1"] + d + 1) if d % 2 == 0
                                 else (p["r1"], -(p["r1"] + d + 1)))),
            Row("s_star=-2r2", (("s_star", _scaled(-2, "r2")),),
                lambda p, d, f: ((p["r2"], p["r2"] + d) if d % 2 == 0
                                 else (p["r2"], -(p["r2"] + d + 1))), mirrored=True),
        ),
        dim2=(Row(eqs=(("s_star", _scaled(-2, "r1")), ("s", lambda p, d, f: f(d + 1))),
                  when=lambda d: d % 2 == 0, drawable=_bannai_ito_dim2_drawable),),
        self_dual=Row(eqs=(_SELF_DUAL_H, _SELF_DUAL_S)),
        spin=(Row(eqs=(("s", _scaled(-2, "r1")),)), Row(eqs=(("s", _scaled(-2, "r2")),))),
    ),
    LeonardType.ORPHAN: Family(
        params=("h", "h_star", "s", "s_star", "r"),
        build=_build_orphan,
        factor=lambda p, d, f: (p["h"] * p["h"] * p["h_star"] * p["h_star"]
                                * (p["s_star"] * p["s_star"] + 1)),
        draws=("h", "s", "r", "h_star", "s_star"),
        characteristic=Characteristic("2", lambda c, d: c == 2),
        clauses=(
            Forbidden("s-not-one", _once, lambda p: lambda i: 1,
                      (("s == 1", _param("s")), ("s_star == 1", _param("s_star")))),
            Forbidden("r-excluded", _once, lambda p: lambda i: p["r"], (
                ("r == s+s_star", lambda p, d, f: p["s"] + p["s_star"]),
                ("r == s*(1+s_star)", lambda p, d, f: p["s"] * (1 + p["s_star"])),
                ("r == s_star*(1+s)", lambda p, d, f: p["s_star"] * (1 + p["s"])))),
        ),
        self_dual=Row(eqs=(_SELF_DUAL_H, _SELF_DUAL_S)),
        fields=("GF(2^2)", "GF(2^3)"),
        diameter=3,
    ),
}
