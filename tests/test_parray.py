import random

import pytest
from hypothesis import given, strategies as st

from conftest import QQ, make_krawtchouk
from leonardz.errors import (
    DegenerateArray,
    InvalidSpec,
    SamplingExhausted,
    UnsupportedCharacteristic,
    ZeroScale,
)
from leonardz.analysis import verify_pi2
from leonardz.exactfield import ExtensionField, PrimeField, parse_field
from leonardz.parray import (
    ALL_TYPES,
    FAMILIES,
    MAX_D,
    LeonardType,
    ParameterArray,
    TypeSpec,
    affine_transform,
    build_parameter_array,
    dualize,
    reverse_dual,
    reverse_primal,
    spec_from_mapping,
    spec_to_mapping,
    validate_spec,
)
from leonardz.sampling import modes_for_type, sample_spec


def arrays_equal(a, b):
    return (a.theta == b.theta and a.theta_star == b.theta_star
            and a.phi1 == b.phi1 and a.phi2 == b.phi2)


def test_krawtchouk_vanishing_second_sequence_rejected():
    # r = s*s_star makes the second split sequence identically zero
    spec = make_krawtchouk("1")
    violations = validate_spec(spec)
    assert any(v.clause == "krawtchouk:r-product" for v in violations)
    with pytest.raises(InvalidSpec):
        build_parameter_array(spec)


def test_krawtchouk_worked_sequences(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    assert arr.theta == [QQ(0), QQ(1), QQ(2), QQ(3)]
    assert arr.theta_star == [QQ(0), QQ(1), QQ(2), QQ(3)]
    assert arr.phi1 == [QQ(-6), QQ(-8), QQ(-6)]
    assert arr.phi2 == [QQ(-3), QQ(-4), QQ(-3)]


def test_dual_q_krawtchouk_worked_values(dual_q_krawtchouk_spec):
    arr = build_parameter_array(dual_q_krawtchouk_spec)
    assert arr.theta_star[1] == QQ("-2/3")
    assert arr.theta[1] == QQ("34/3")
    assert arr.phi1_at(1) == QQ("-52/81")


def test_krawtchouk_half_r_valid():
    assert validate_spec(make_krawtchouk("1/2")) == []


def test_orphan_over_rationals_unsupported():
    spec = TypeSpec(LeonardType.ORPHAN, 3, QQ, QQ(0), QQ(0),
                    {"h": QQ(1), "h_star": QQ(1), "s": QQ(2), "s_star": QQ(2),
                     "r": QQ(3)})
    with pytest.raises(UnsupportedCharacteristic):
        validate_spec(spec)


def test_orphan_over_gf4_builds():
    gf4 = ExtensionField(2, 2)
    t = gf4.generator
    spec = TypeSpec(LeonardType.ORPHAN, 3, gf4, gf4(0), gf4(0),
                    {"h": gf4(1), "h_star": gf4(1), "s": t, "s_star": t,
                     "r": t})
    assert validate_spec(spec) == []
    arr = build_parameter_array(spec)
    assert arr.phi1_at(2) == gf4(1)


def test_orphan_over_gf2_impossible():
    gf2 = PrimeField(2)
    spec = TypeSpec(LeonardType.ORPHAN, 3, gf2, gf2(0), gf2(0),
                    {"h": gf2(1), "h_star": gf2(1), "s": gf2(1),
                     "s_star": gf2(1), "r": gf2(1)})
    assert any(v.clause == "orphan:s-not-one" for v in validate_spec(spec))


def test_q_racah_product_clause():
    spec = TypeSpec(LeonardType.Q_RACAH, 3, QQ, QQ(0), QQ(0),
                    {"q": QQ(2), "h": QQ(1), "h_star": QQ(1), "s": QQ(3),
                     "s_star": QQ(5), "r1": QQ(1), "r2": QQ(1)})
    assert any(v.clause == "q-racah:r1r2-product" for v in validate_spec(spec))


def test_racah_characteristic_clause():
    params = {"h": None, "h_star": None, "s": None, "s_star": None,
              "r1": None, "r2": None}
    gf3 = PrimeField(3)
    spec = TypeSpec(LeonardType.RACAH, 3, gf3, gf3(0), gf3(0),
                    {k: gf3(1) for k in params})
    with pytest.raises(UnsupportedCharacteristic):
        validate_spec(spec)


def test_wrong_parameter_keys_rejected():
    spec = TypeSpec(LeonardType.KRAWTCHOUK, 3, QQ, QQ(0), QQ(0),
                    {"s": QQ(1), "s_star": QQ(1)})
    with pytest.raises(InvalidSpec):
        validate_spec(spec)
    spec = TypeSpec(LeonardType.KRAWTCHOUK, 3, QQ, QQ(0), QQ(0),
                    {"s": QQ(1), "s_star": QQ(1), "r": QQ(2), "q": QQ(2)})
    with pytest.raises(InvalidSpec):
        validate_spec(spec)


def test_d_below_three_rejected():
    spec = make_krawtchouk("2", d=2)
    with pytest.raises(InvalidSpec):
        validate_spec(spec)


def test_exemplars_build_valid_arrays(exemplar_specs):
    for spec in exemplar_specs.values():
        arr = build_parameter_array(spec)
        arr.validate()


def test_degenerate_array_guard():
    arr = ParameterArray(QQ, 3, [QQ(0), QQ(1), QQ(2), QQ(2)],
                         [QQ(0), QQ(1), QQ(2), QQ(3)],
                         [QQ(1)] * 3, [QQ(1)] * 3)
    with pytest.raises(DegenerateArray):
        arr.validate()
    arr = ParameterArray(QQ, 3, [QQ(0), QQ(1), QQ(2), QQ(3)],
                         [QQ(0), QQ(1), QQ(2), QQ(3)],
                         [QQ(1), QQ(0), QQ(1)], [QQ(1)] * 3)
    with pytest.raises(DegenerateArray):
        arr.validate()


# -- the parameter-array axioms ---------------------------------------------


def axiom_failures(arr):
    """The (axiom, i) at which the array breaks PA3 or PA4.

    PA3 and PA4 of Terwilliger, LAA 330 (2001), with
    sigma_i = sum_{h<i} (theta_h - theta_{d-h}) / (theta_0 - theta_d):
    phi1_i = phi2_1 sigma_i + (theta*_i - theta*_0)(theta_{i-1} - theta_d) and
    phi2_i = phi1_1 sigma_i + (theta*_i - theta*_0)(theta_{d-i+1} - theta_0).
    """
    d, th, ts = arr.d, arr.theta, arr.theta_star
    sigma = arr.field.zero
    failures = []
    for i in range(1, d + 1):
        sigma += (th[i - 1] - th[d - i + 1]) / (th[0] - th[d])
        if arr.phi1_at(i) != arr.phi2_at(1) * sigma + (ts[i] - ts[0]) * (th[i - 1] - th[d]):
            failures.append(("PA3", i))
        if arr.phi2_at(i) != arr.phi1_at(1) * sigma + (ts[i] - ts[0]) * (th[d - i + 1] - th[0]):
            failures.append(("PA4", i))
    return failures


def axiom_samples(name):
    """One sample per mode over each campaign field of the family and over
    GF(1000003) and GF(3^4), each field at one diameter of 3..MAX_D."""
    fam = FAMILIES[name]
    for k, label in enumerate(fam.fields + ("GF(1000003)", "GF(3^4)")):
        ctx = parse_field(label)
        rule = fam.characteristic
        admitted = [d for d in range(3, MAX_D + 1) if fam.diameter in (None, d)
                    and (rule is None or rule.allows(ctx.characteristic, d))]
        if not admitted:
            continue
        d = admitted[(5 * ALL_TYPES.index(name) + 3 * k) % len(admitted)]
        for mode in modes_for_type(name, d, ctx):
            rng = random.Random(f"axioms|{name.value}|{label}|{d}|{mode}")
            try:
                yield sample_spec(name, d, ctx, rng, mode=mode)
            except SamplingExhausted:
                # a forced row can still clash with a clause in small
                # characteristic (bannai-ito self-dual-spin over GF(3^4) at
                # d = 4 forces r2 = d + 1, which is -1 mod 3)
                continue


@pytest.mark.parametrize("name", ALL_TYPES, ids=[t.value for t in ALL_TYPES])
def test_arrays_satisfy_pa3_and_pa4(name):
    specs = list(axiom_samples(name))
    assert specs
    for spec in specs:
        arr = build_parameter_array(spec)
        assert axiom_failures(arr) == [], (spec.field.label(), spec.d, spec.params)
        assert len(verify_pi2(spec, arr)) == (spec.d - 1) ** 2


def test_axiom_samples_span_the_diameters():
    ds = {spec.d for name in ALL_TYPES for spec in axiom_samples(name)}
    assert {3, MAX_D} <= ds


def test_axiom_oracle_rejects_a_broken_array(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    arr.phi2[1] += 1
    assert axiom_failures(arr) == [("PA4", 2)]
    arr.phi2[1] -= 1
    arr.phi1[0] += 1
    assert axiom_failures(arr) == [("PA3", 1), ("PA4", 1), ("PA4", 2), ("PA4", 3)]


# -- transforms -------------------------------------------------------------


def generic_arrays():
    """Random arrays with the structural invariants (validity not required)."""

    def build(seed):
        rng = random.Random(seed)
        d = rng.randint(3, 6)
        theta = rng.sample(range(-50, 50), d + 1)
        theta_star = rng.sample(range(-50, 50), d + 1)
        phi1 = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(d)]
        phi2 = [rng.choice([x for x in range(-9, 10) if x]) for _ in range(d)]
        return ParameterArray(QQ, d, [QQ(x) for x in theta],
                              [QQ(x) for x in theta_star],
                              [QQ(x) for x in phi1], [QQ(x) for x in phi2])

    return st.builds(build, st.integers(min_value=0, max_value=10 ** 9))


@given(generic_arrays())
def test_reverse_dual_is_involution(arr):
    assert arrays_equal(reverse_dual(reverse_dual(arr)), arr)


@given(generic_arrays())
def test_reverse_primal_is_involution(arr):
    assert arrays_equal(reverse_primal(reverse_primal(arr)), arr)


@given(generic_arrays())
def test_dualize_is_involution(arr):
    assert arrays_equal(dualize(dualize(arr)), arr)


@given(generic_arrays())
def test_reversals_commute(arr):
    assert arrays_equal(reverse_dual(reverse_primal(arr)),
                        reverse_primal(reverse_dual(arr)))


def test_reverse_dual_worked(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    down = reverse_dual(arr)
    assert down.theta_star == [QQ(3), QQ(2), QQ(1), QQ(0)]
    assert down.theta == arr.theta
    assert down.phi1 == arr.phi2[::-1]
    assert down.phi2 == arr.phi1[::-1]


def test_dualize_worked(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    dual = dualize(arr)
    assert dual.theta == arr.theta_star
    assert dual.theta_star == arr.theta
    assert dual.phi1 == arr.phi1
    assert dual.phi2 == arr.phi2[::-1]


def test_affine_identity(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    same = affine_transform(arr, QQ(1), QQ(0), QQ(1), QQ(0))
    assert arrays_equal(same, arr)


def test_affine_scaling_worked(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    scaled = affine_transform(arr, QQ(2), QQ(0), QQ(1), QQ(0))
    assert scaled.theta == [QQ(0), QQ(2), QQ(4), QQ(6)]
    assert scaled.phi1 == [QQ(-12), QQ(-16), QQ(-12)]


def test_affine_composition(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    one = QQ(1)
    zero = QQ(0)
    x1, z1, x2, z2 = QQ(2), QQ(3), QQ(5), QQ(-1)
    twice = affine_transform(affine_transform(arr, x2, z2, one, zero),
                             x1, z1, one, zero)
    composed = affine_transform(arr, x1 * x2, x1 * z2 + z1, one, zero)
    assert arrays_equal(twice, composed)


def test_affine_zero_scale_rejected(kraw_dim1):
    arr = build_parameter_array(kraw_dim1)
    with pytest.raises(ZeroScale):
        affine_transform(arr, QQ(0), QQ(0), QQ(1), QQ(0))


def test_spec_mapping_roundtrip(exemplar_specs):
    for spec in exemplar_specs.values():
        mapping = spec_to_mapping(spec)
        back = spec_from_mapping(mapping)
        assert back.name == spec.name and back.d == spec.d
        assert back.field == spec.field
        assert back.theta0 == spec.theta0
        assert back.params == spec.params


def test_all_thirteen_types_enumerated():
    assert len(ALL_TYPES) == 13
    assert LeonardType.from_string("Dual Q Hahn") is LeonardType.DUAL_Q_HAHN
