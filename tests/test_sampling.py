import random

import pytest

from conftest import QQ
from leonardz import sampling
from leonardz.analysis import (
    dim2_predicate,
    self_dual_predicate,
    spin_table_predicate,
    z_nonzero_predicate,
)
from leonardz.errors import InvalidMode, LeonardError, SamplingExhausted
from leonardz.exactfield import ExtensionField, PrimeField, parse_field
from leonardz.parray import ALL_TYPES, LeonardType, validate_spec
from leonardz.sampling import (
    MODE_DIM2,
    MODE_GENERIC,
    MODE_SELF_DUAL,
    MODE_SELF_DUAL_SPIN,
    modes_for_type,
    sample_spec,
)


def ctx_for(name):
    return ExtensionField(2, 2) if name is LeonardType.ORPHAN else QQ


@pytest.mark.parametrize("name", ALL_TYPES, ids=lambda t: t.value)
def test_generic_samples_are_valid(name):
    ctx = ctx_for(name)
    rng = random.Random(f"valid|{name.value}")
    for _ in range(5):
        spec = sample_spec(name, 3, ctx, rng)
        assert spec.name is name
        assert validate_spec(spec) == []


@pytest.mark.parametrize("name", ALL_TYPES, ids=lambda t: t.value)
def test_all_modes_sample_validly(name):
    ctx = ctx_for(name)
    d = 3 if name is LeonardType.ORPHAN else 4
    for mode in modes_for_type(name, d):
        rng = random.Random(f"modes|{name.value}|{mode}")
        spec = sample_spec(name, d, ctx, rng, mode=mode)
        assert validate_spec(spec) == []
        if mode.startswith("z:"):
            assert z_nonzero_predicate(spec) == (True, f"{name.value}:{mode[2:]}")
        if mode == MODE_DIM2:
            assert dim2_predicate(spec) is True
        if mode in (MODE_SELF_DUAL, MODE_SELF_DUAL_SPIN):
            assert self_dual_predicate(spec) is True
        if mode == MODE_SELF_DUAL_SPIN:
            assert spin_table_predicate(spec) is True


def test_sampling_is_deterministic():
    def draw(seed):
        rng = random.Random(seed)
        spec = sample_spec(LeonardType.Q_RACAH, 5, QQ, rng)
        return [str(v) for v in spec.params.values()]

    assert draw("fixed") == draw("fixed")
    assert draw("fixed") != draw("other")


def test_modes_for_type_structure():
    assert modes_for_type(LeonardType.DUAL_HAHN, 4) == [MODE_GENERIC]
    kraw = modes_for_type(LeonardType.KRAWTCHOUK, 4)
    assert MODE_DIM2 in kraw and MODE_SELF_DUAL in kraw
    bi_odd = modes_for_type(LeonardType.BANNAI_ITO, 5)
    assert MODE_DIM2 not in bi_odd
    bi_even = modes_for_type(LeonardType.BANNAI_ITO, 4)
    assert MODE_DIM2 in bi_even
    assert "z:s_star=-2r1" in bi_even


@pytest.mark.parametrize("name, d, mode", [
    (LeonardType.DUAL_HAHN, 4, MODE_DIM2),
    (LeonardType.KRAWTCHOUK, 4, "z:typo"),
    (LeonardType.BANNAI_ITO, 5, MODE_DIM2),
    (LeonardType.KRAWTCHOUK, 4, MODE_SELF_DUAL_SPIN),
])
def test_unlisted_mode_is_rejected(name, d, mode):
    assert mode not in modes_for_type(name, d)
    with pytest.raises(InvalidMode) as info:
        sample_spec(name, d, QQ, random.Random(0), mode=mode)
    assert isinstance(info.value, LeonardError)


@pytest.mark.parametrize("d", [2, 4, 5])
def test_fixed_diameter_family_has_no_modes_elsewhere(d):
    gf4 = ExtensionField(2, 2)
    rng = random.Random(0)
    state = rng.getstate()
    assert modes_for_type(LeonardType.ORPHAN, d) == []
    for mode in (MODE_GENERIC, MODE_SELF_DUAL):
        with pytest.raises(InvalidMode):
            sample_spec(LeonardType.ORPHAN, d, gf4, rng, mode=mode)
    assert rng.getstate() == state


# (p, d) pairs of the scan p = 3..23, even d = 4..16 with 2p > d where no
# Bannai-Ito dim2 spec can be drawn over GF(p): exactly those with p <= d + 1.
BANNAI_ITO_DIM2_UNDRAWABLE = (
    [(3, 4), (5, 4), (5, 6), (5, 8)] + [(7, d) for d in range(6, 13, 2)]
    + [(11, d) for d in range(10, 17, 2)] + [(13, d) for d in (12, 14, 16)] + [(17, 16)])


def test_bannai_ito_dim2_offered_only_where_drawable():
    bi = LeonardType.BANNAI_ITO
    offered = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        ctx = PrimeField(p)
        for d in range(4, 17, 2):
            if 2 * p <= d:
                continue
            rng = random.Random(f"bi-dim2|{p}|{d}")
            if (p, d) in BANNAI_ITO_DIM2_UNDRAWABLE:
                assert MODE_DIM2 not in modes_for_type(bi, d, ctx), (p, d)
                # GF(p) with p <= d cannot hold d + 1 distinct eigenvalues
                assert (MODE_GENERIC in modes_for_type(bi, d, ctx)) is (p > d), (p, d)
                with pytest.raises(InvalidMode):
                    sample_spec(bi, d, ctx, rng, mode=MODE_DIM2)
            else:
                assert MODE_DIM2 in modes_for_type(bi, d, ctx), (p, d)
                spec = sample_spec(bi, d, ctx, rng, mode=MODE_DIM2)
                assert dim2_predicate(spec), (p, d)
                offered += 1
    assert offered == 44 - len(BANNAI_ITO_DIM2_UNDRAWABLE)
    # At p = d + 1 a proper extension still has room for r1; p <= d never does.
    for label, d, drawable in (("GF(5^2)", 4, True), ("GF(7^2)", 6, True),
                               ("GF(3^4)", 4, False), ("GF(5^2)", 6, False)):
        ctx = parse_field(label)
        assert (MODE_DIM2 in modes_for_type(bi, d, ctx)) is drawable, label
        if drawable:
            assert dim2_predicate(sample_spec(bi, d, ctx, random.Random(label),
                                              mode=MODE_DIM2))
    assert modes_for_type(bi, 4, QQ) == modes_for_type(bi, 4)
    assert MODE_DIM2 in modes_for_type(bi, 4, QQ)


def test_sampling_exhausts_on_impossible_cell(monkeypatch):
    # GF(7) holds 4 distinct eigenvalues, yet no valid racah spec exists
    # there at d = 3: none of the 7^5 draws with theta0 = theta*0 = 0 passes.
    # The retry budget is read when sample_spec is called.
    gf7 = PrimeField(7)
    assert MODE_GENERIC in modes_for_type(LeonardType.RACAH, 3, gf7)
    monkeypatch.setattr(sampling, "DEFAULT_RETRIES", 30)
    with pytest.raises(SamplingExhausted, match="^no valid racah sample for d=3 "
                                                "mode=generic within 30 retries$"):
        sample_spec(LeonardType.RACAH, 3, gf7, random.Random(0))


@pytest.mark.parametrize("label, size", [("GF(2)", 2), ("GF(2^2)", 4), ("GF(2^3)", 8)])
def test_field_too_small_for_the_eigenvalues_has_no_modes(label, size):
    """d + 1 distinct eigenvalues need d + 1 elements: a smaller field lists
    no mode, and sample_spec refuses it before drawing."""
    ctx = parse_field(label)
    for name in ALL_TYPES:
        for d in range(2, 13):
            modes = modes_for_type(name, d, ctx)
            if d >= size:
                assert modes == [], (name, d)
                rng = random.Random(0)
                state = rng.getstate()
                with pytest.raises(InvalidMode):
                    sample_spec(name, d, ctx, rng)
                assert rng.getstate() == state
    if size > 3:
        orphan = LeonardType.ORPHAN
        assert modes_for_type(orphan, 3, ctx) == modes_for_type(orphan, 3)


def test_forced_conditions_hold_exactly():
    rng = random.Random("force")
    spec = sample_spec(LeonardType.Q_RACAH, 4, QQ, rng, mode="z:s_star=r2^2")
    assert spec.params["s_star"] == spec.params["r2"] ** 2
    q, d = spec.params["q"], spec.d
    assert spec.params["r1"] * spec.params["r2"] == \
        spec.params["s"] * spec.params["s_star"] * q ** (d + 1)
    spec = sample_spec(LeonardType.KRAWTCHOUK, 4, QQ, rng, mode=MODE_DIM2)
    assert spec.params["s"] * spec.params["s_star"] == 2 * spec.params["r"]
    spec = sample_spec(LeonardType.BANNAI_ITO, 4, QQ, rng, mode=MODE_DIM2)
    assert spec.params["s"] == QQ(5)
    assert spec.params["s_star"] == -2 * spec.params["r1"]


def test_orphan_gf8_sampling():
    gf8 = ExtensionField(2, 3)
    rng = random.Random("orphan8")
    spec = sample_spec(LeonardType.ORPHAN, 3, gf8, rng)
    assert validate_spec(spec) == []
    assert spec.field.characteristic == 2
