import math
import random
from dataclasses import dataclass

import pytest

from leonardz import realization
from leonardz.errors import SingularBasis
from leonardz.exactfield import ExtensionField, Rationals, parse_field
from leonardz.families import FAMILIES
from leonardz.parray import ALL_TYPES, LeonardType, TypeSpec
from leonardz.sampling import modes_for_type, sample_spec

QQ = Rationals()


def make_krawtchouk(r, d=3, s="1", s_star="1", theta0="0", theta_star0="0"):
    return TypeSpec(LeonardType.KRAWTCHOUK, d, QQ, QQ(theta0), QQ(theta_star0),
                    {"s": QQ(s), "s_star": QQ(s_star), "r": QQ(r)})


def campaign_cell_samples(d_values=range(3, 7)):
    """One sampled spec per (type, d, field, mode) cell of the campaign."""
    for name in ALL_TYPES:
        for d in d_values:
            for ctx in map(parse_field, FAMILIES[name].fields):
                for mode in modes_for_type(name, d, ctx):
                    rng = random.Random(f"closed|{name.value}|{d}|{ctx.label()}|{mode}")
                    yield sample_spec(name, d, ctx, rng, mode=mode)


def families_over(ctx, d):
    """The types that admit diameter d over the field ctx."""
    return [name for name in ALL_TYPES
            if FAMILIES[name].diameter in (None, d)
            and (FAMILIES[name].characteristic is None
                 or FAMILIES[name].characteristic.allows(ctx.characteristic, d))]


def cross_route_samples():
    """One sample per campaign cell, and one d = 16 sample per family over
    Q, GF(1000003) and GF(3^4)."""
    yield from campaign_cell_samples()
    for label in ("Q", "GF(1000003)", "GF(3^4)"):
        ctx = parse_field(label)
        for name in families_over(ctx, 16):
            yield sample_spec(name, 16, ctx, random.Random(f"cross-route|{label}|{name.value}"))


def eigenvectors(u):
    """The basis V = P^-1 U C of the closed form U as field elements, with
    P = diag(Phi_r L^r) and C_j = u.scale(j), so that v_j[j] = 1."""
    one, n = u.cols[0][0], len(u.cols)
    return [[u.quo(x, one) / math.prod(u.phi[:r], start=u.quo(u.lcm ** r, one)) * u.scale(j)
             for r, x in enumerate(col)] + [u.ctx.zero] * (n - 1 - j)
            for j, col in enumerate(u.cols)]


@dataclass
class SpectralFactors:
    """Primitive idempotents as rank-one factors, E_i = v[i] w[i]^T, with
    w[i] . v[j] = 1 when i = j and 0 otherwise."""

    v: list
    w: list

    def transpose(self):
        """Factors of the transposed projections E_i^T = w_i v_i^T."""
        return SpectralFactors(self.w, self.v)

    def projections(self):
        """The dense matrices v_i w_i^T."""
        return [[[x * y for y in w] for x in v] for v, w in zip(self.v, self.w)]


def bidiagonal_idempotents(eigs, sup, ctx):
    """The reference route to the spectral projections of the upper
    bidiagonal M with diagonal eigs and superdiagonal sup, by substitution.

    The right eigenvector v_i (support 0..i) comes from back-substitution
    in M, the left one w_i (support i..d) from forward substitution in its
    lower bidiagonal transpose, each with entry i equal to 1, so
    E_i = v_i w_i^T.  A diagonal M qualifies (sup all zero), and so does
    the transpose of a lower bidiagonal one, such as the split A (sup its
    subdiagonal; transpose() gives its factors).  Equal eigs end a
    substitution with a zero divisor, and realization._check_distinct then
    names the first equal pair (RepeatedEigenvalue).  The package reads
    closed forms instead (realization._TauStar); the product formula,
    realization.primitive_idempotents, is slower at large d.
    """
    n = len(eigs)

    def eigenvector(i, lower):
        v = [ctx.zero] * n
        v[i] = ctx.one
        if lower:
            for r in range(i + 1, n):
                v[r] = v[r - 1] * (sup[r - 1] / (eigs[i] - eigs[r]))
        else:
            for r in range(i - 1, -1, -1):
                v[r] = v[r + 1] * (sup[r] / (eigs[i] - eigs[r]))
        return v

    try:
        return SpectralFactors([eigenvector(i, False) for i in range(n)],
                               [eigenvector(i, True) for i in range(n)])
    except ZeroDivisionError:
        realization._check_distinct(eigs)
        raise


def standard_scale(band, d, theta0, one, c):
    """The reference scale D with (T - theta_0 I) D = 0 and D_0 = 1, for
    the band T of W* A V*: A of the standard basis {E*_i u} is D^-1 T D.

    Rows 0..d - 1 of T give D_1..D_d by the three-term recurrence, one
    division by t_(i,i+1) each, which must be nonzero.  Each D_i must be
    nonzero and row d must then vanish; SingularBasis names the first zero
    "E*_i u vanishes: D_i = 0" or the residual
    "(T - theta_0 I) D != 0 in row d: r" otherwise.  The band given may be
    that of T' = C T C^-1, with c(i) = C_i: the same recurrence gives
    D' = C D, as C_0 = 1, and the values named are D_i = D'_i / C_i and
    the residual of T over C_d.  The package reads b and c off the band by
    the row sums instead (realization.standard_basis_rep), and forms no D.
    """
    scale = [one]
    for i in range(d + 1):
        x = (band[i, i] - theta0) * scale[i]
        if i:
            x = x + band[i, i - 1] * scale[i - 1]
        if i == d and x:
            raise SingularBasis(
                f"(T - theta_0 I) D != 0 in row {d}: {realization._unscaled(c, x, d)}")
        if i < d:
            scale.append(-x / band[i, i + 1])
            if not scale[-1]:
                raise SingularBasis(f"E*_{i + 1} u vanishes: "
                                    f"D_{i + 1} = {realization._unscaled(c, scale[-1], i + 1)}")
    return scale


def dense_split(real):
    """The split pair of real as the dense matrices (A, A*), formed here for
    the oracles: the package holds the pair as its four diagonals."""
    n, zero = len(real.theta), real.array.field.zero
    a, a_star = [[zero] * n for _ in range(n)], [[zero] * n for _ in range(n)]
    for r in range(n):
        a[r][r], a_star[r][r] = real.theta[r], real.theta_star[r]
    for r, (x, y) in enumerate(zip(real.sub, real.sup)):
        a[r + 1][r], a_star[r][r + 1] = x, y
    return a, a_star


@pytest.fixture(scope="session")
def rationals():
    return QQ


@pytest.fixture(scope="session")
def kraw_dim1():
    """Valid worked instance with a one-dimensional zero diagonal space."""
    return make_krawtchouk("2")


@pytest.fixture(scope="session")
def kraw_dim2():
    """Valid worked instance with constant diagonal intersection numbers."""
    return make_krawtchouk("1/2")


@pytest.fixture(scope="session")
def dual_q_krawtchouk_spec():
    return TypeSpec(LeonardType.DUAL_Q_KRAWTCHOUK, 3, QQ, QQ(0), QQ(0),
                    {"q": QQ(3), "h": QQ(1), "h_star": QQ(1), "s": QQ(2)})


@pytest.fixture(scope="session")
def dual_hahn_spec():
    return TypeSpec(LeonardType.DUAL_HAHN, 3, QQ, QQ(0), QQ(0),
                    {"h": QQ(1), "s": QQ(1), "s_star": QQ(1), "r": QQ(1)})


@pytest.fixture(scope="session")
def exemplar_specs():
    """One deterministically sampled valid spec per type, at d = 3 (d = 4 for
    the even-diameter checks of the Bannai/Ito family)."""
    out = {}
    for name in ALL_TYPES:
        ctx = ExtensionField(2, 2) if name is LeonardType.ORPHAN else QQ
        rng = random.Random(f"exemplar|{name.value}")
        out[name] = sample_spec(name, 3, ctx, rng)
    rng = random.Random("exemplar|bannai-ito|even")
    out["bannai-ito-even"] = sample_spec(LeonardType.BANNAI_ITO, 4, QQ, rng)
    return out
