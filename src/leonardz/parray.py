"""Parameter arrays of the 13 families: specs, validation, construction.

A TypeSpec names a family (see leonardz.families, which holds one record
per family), a diameter d, a field and the family's scalar parameters.
A parameter array is the four sequences (theta, theta_star, phi1, phi2):
theta/theta_star are the two eigenvalue sequences, phi1/phi2 the first
and second split sequences.  validate_spec checks every clause of the
family's definition exactly; build_parameter_array runs it and then
evaluates the family's formulas and re-checks the array invariants
(eigenvalue distinctness, nonvanishing split sequences) as a guard
against constraint gaps.  The campaign's specs come validated from the
sampler, so it calls the array step, _build_array, alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateArray, InvalidSpec, UnsupportedCharacteristic, ZeroScale
from .families import ALL_TYPES, FAMILIES, LeonardType, Violation  # noqa: F401

# The largest diameter accepted.  Beyond it, one sample of each of five
# families over Q was analysed, fast and deep, at d = 32 and 64 (the
# height-growth table in CHANGES.md): every verdict passed, and the time
# follows rational height more than d.  Raising it needs a budget on d
# and input height together.
MAX_D = 16


@dataclass(frozen=True, slots=True)
class TypeSpec:
    """One family member: type name, diameter d, field, and named parameters."""

    name: LeonardType
    d: int
    field: object
    theta0: object
    theta_star0: object
    params: dict

    def param(self, key):
        return self.params[key]


@dataclass
class ParameterArray:
    """The sequences (theta, theta_star, phi1, phi2) over one field.

    theta and theta_star have length d+1; phi1 and phi2 have length d and
    are 1-indexed through phi1_at / phi2_at.
    """

    field: object
    d: int
    theta: list
    theta_star: list
    phi1: list
    phi2: list

    def phi1_at(self, i):
        return self.phi1[i - 1]

    def phi2_at(self, i):
        return self.phi2[i - 1]

    def validate(self):
        n = self.d + 1
        if not (len(self.theta) == len(self.theta_star) == n
                and len(self.phi1) == len(self.phi2) == self.d):
            raise DegenerateArray("sequence lengths inconsistent with d")
        for i in range(n):
            for j in range(i + 1, n):
                if self.theta[i] == self.theta[j]:
                    raise DegenerateArray(f"theta[{i}] == theta[{j}]")
                if self.theta_star[i] == self.theta_star[j]:
                    raise DegenerateArray(f"theta_star[{i}] == theta_star[{j}]")
        for i in range(1, self.d + 1):
            if not self.phi1_at(i):
                raise DegenerateArray(f"phi1[{i}] == 0")
            if not self.phi2_at(i):
                raise DegenerateArray(f"phi2[{i}] == 0")
        return self


def validate_spec(spec):
    """Check every clause of the spec's family; return the violation list.

    Raises UnsupportedCharacteristic when the field characteristic is
    structurally incompatible with the family, and InvalidSpec when the
    parameter set itself is malformed (wrong keys, d < 3, d > MAX_D).
    """
    fam = FAMILIES[spec.name]
    prefix = spec.name.value + ":"
    missing = [k for k in fam.params if k not in spec.params]
    extra = [k for k in spec.params if k not in fam.params]
    if missing or extra:
        raise InvalidSpec([Violation(
            prefix + "parameters",
            f"missing {missing or 'none'}, unexpected {extra or 'none'}")])
    if spec.d < 3:
        raise InvalidSpec([Violation("d", f"d must be >= 3; got {spec.d}")])
    if spec.d > MAX_D:
        raise InvalidSpec([Violation("d", f"d must be <= {MAX_D}; got {spec.d}")])
    char = spec.field.characteristic
    rule = fam.characteristic
    if rule is not None and not rule.allows(char, spec.d):
        raise UnsupportedCharacteristic([Violation(
            prefix + "characteristic",
            f"characteristic must be {rule.need}; got {char}")])
    if fam.diameter not in (None, spec.d):
        return [Violation(prefix + "d", f"d must be {fam.diameter}; got {spec.d}")]
    p = spec.params
    violations = [Violation(prefix + "nonzero", f"{k} must be nonzero")
                  for k in fam.nonzero or fam.params if not p[k]]
    if all(p[k] for k in fam.guard):
        for clause in fam.clauses:
            violations.extend(Violation(prefix + c, detail)
                              for c, detail in clause.violations(p, spec.d, spec.field))
    return violations


def build_parameter_array(spec):
    """Evaluate the spec's family formulas into a validated ParameterArray."""
    violations = validate_spec(spec)
    if violations:
        raise InvalidSpec(violations)
    return _build_array(spec)


def _build_array(spec):
    """The array of a spec that validate_spec has accepted, with its
    invariants checked; for callers that have validated the spec already."""
    theta, theta_star, phi1, phi2 = FAMILIES[spec.name].build(spec)
    return ParameterArray(spec.field, spec.d, theta, theta_star, phi1, phi2).validate()


# ---------------------------------------------------------------------------
# transforms


def reverse_dual(p):
    """Reverse the dual eigenvalue ordering (theta fixed, theta_star flipped)."""
    return ParameterArray(p.field, p.d, p.theta[:], p.theta_star[::-1],
                          p.phi2[::-1], p.phi1[::-1])


def reverse_primal(p):
    """Reverse the primal eigenvalue ordering (theta flipped, theta_star fixed)."""
    return ParameterArray(p.field, p.d, p.theta[::-1], p.theta_star[:],
                          p.phi2[:], p.phi1[:])


def dualize(p):
    """Exchange the roles of the two eigenvalue families."""
    return ParameterArray(p.field, p.d, p.theta_star[:], p.theta[:],
                          p.phi1[:], p.phi2[::-1])


def affine_transform(p, xi, zeta, xi_star, zeta_star):
    """Rescale and shift both eigenvalue sequences; scales must be nonzero."""
    if not xi or not xi_star:
        raise ZeroScale("affine scale factors must be nonzero")
    prod = xi * xi_star
    return ParameterArray(
        p.field, p.d,
        [xi * t + zeta for t in p.theta],
        [xi_star * t + zeta_star for t in p.theta_star],
        [prod * x for x in p.phi1],
        [prod * x for x in p.phi2])


# ---------------------------------------------------------------------------
# spec serialization (key/value text, shared with the CLI config format)


def spec_to_mapping(spec):
    fmt = spec.field.format
    out = {
        "type": spec.name.value,
        "d": str(spec.d),
        "field": spec.field.label(),
        "theta0": fmt(spec.theta0),
        "theta_star0": fmt(spec.theta_star0),
    }
    for key in FAMILIES[spec.name].params:
        out[key] = fmt(spec.params[key])
    return out


def spec_from_mapping(mapping):
    """Build a TypeSpec from string key/value pairs (type, d, field, params)."""
    from .exactfield import parse_field

    data = dict(mapping)
    try:
        name = LeonardType.from_string(data.pop("type"))
        d_text = data.pop("d")
    except KeyError as e:
        raise InvalidSpec([Violation("spec", f"missing key {e.args[0]!r}")]) from None
    try:
        d = int(d_text)
    except ValueError:
        raise InvalidSpec([Violation("d", f"d must be an integer; got {d_text!r}")]) from None
    ctx = parse_field(data.pop("field", "Q"))
    theta0 = ctx.parse(data.pop("theta0", "0"))
    theta_star0 = ctx.parse(data.pop("theta_star0", "0"))
    params = {key: ctx.parse(val) for key, val in data.items()}
    return TypeSpec(name, d, ctx, theta0, theta_star0, params)
