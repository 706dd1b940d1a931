"""Seeded random sampling of valid type specs, with condition forcing.

Most classification conditions (a squared parameter, a forced product) cut
out measure-zero sets, so they are substituted into the draw before the
remaining parameters are sampled.  Everything family-specific comes from
the family's record in families.FAMILIES: its draw order and derived
parameter, and the table rows that a mode forces; a forced row assigns
each of its targets in place of the draw.  Constraint clauses that random
draws can still violate are handled by rejection within a bounded retry
budget.

Modes:

    generic          free parameters (dependent ones derived)
    z:<row>          force one named nonzero-space condition row
    dim2             force the dimension-2 row of the type
    self-dual        force the self-duality row of the type
    self-dual-spin   self-dual plus the spin condition row
"""

from __future__ import annotations

from .errors import InvalidMode, SamplingExhausted
from .exactfield import ExtensionField, sample_element
from .families import FAMILIES
from .parray import TypeSpec, validate_spec

DEFAULT_HEIGHT = 12
DEFAULT_RETRIES = 100

MODE_GENERIC = "generic"
MODE_DIM2 = "dim2"
MODE_SELF_DUAL = "self-dual"
MODE_SELF_DUAL_SPIN = "self-dual-spin"


def _holds_eigenvalues(field, d):
    """Whether the field has the d + 1 elements that d + 1 distinct
    eigenvalues need; every field of characteristic 0 has."""
    if not field.characteristic:
        return True
    k = field.k if isinstance(field, ExtensionField) else 1
    return field.p ** k > d


def _forced_rows(name, d, field=None):
    """Each sampling mode of a (type, d) cell, with the table rows it forces.

    A family with a fixed diameter other than d has no modes at all, and
    neither has a finite field of fewer than d + 1 elements, which cannot
    hold d + 1 distinct eigenvalues.  With a field, a mode whose rows the
    sampler cannot meet over it is left out.
    """
    fam = FAMILIES[name]
    if fam.diameter not in (None, d) or (field is not None and not _holds_eigenvalues(field, d)):
        return {}
    modes = {MODE_GENERIC: ()}
    for row in fam.z_rows:
        if row.name:
            modes["z:" + row.name] = (row,)
    dim2 = [row for row in fam.dim2 if row.exists(d)]
    if dim2:
        modes[MODE_DIM2] = dim2[:1]
    if fam.self_dual is not None:
        modes[MODE_SELF_DUAL] = (fam.self_dual,)
    spin = [row for row in fam.spin if row.eqs]
    if spin:
        modes[MODE_SELF_DUAL_SPIN] = (fam.self_dual, spin[0])
    if field is None:
        return modes
    return {mode: rows for mode, rows in modes.items()
            if all(row.drawable is None or row.drawable(d, field) for row in rows)}


def modes_for_type(name, d, field=None):
    """All sampling modes exercised for a (type, d) campaign cell.

    With a field, only the modes that sample_spec can draw over it.
    """
    return list(_forced_rows(name, d, field))


def _nonzero(ctx, rng, height):
    x = sample_element(ctx, rng, height)
    while not x:
        x = sample_element(ctx, rng, height)
    return x


def _exchanged(values):
    """values with the parameter names r1 and r2 exchanged."""
    swap = {"r1": "r2", "r2": "r1"}
    return {swap.get(key, key): x for key, x in values.items()}


def _draw(fam, d, ctx, rng, height, self_dual, forced, mirrored):
    """One candidate parameter set; may violate clauses."""
    theta0 = sample_element(ctx, rng, height)
    theta_star0 = sample_element(ctx, rng, height)
    if self_dual:
        theta_star0 = theta0
    values = {}
    for draw in fam.draws:
        name = draw.rstrip("?")
        if name in forced:
            values[name] = forced[name](_exchanged(values) if mirrored else values,
                                        d, ctx)
        elif draw.endswith("?"):
            values[name] = sample_element(ctx, rng, height)
        else:
            values[name] = _nonzero(ctx, rng, height)
    if fam.derive is not None:
        name, value = fam.derive
        values[name] = value(values, d, ctx)
    if mirrored:
        values = _exchanged(values)
    return theta0, theta_star0, {key: values[key] for key in fam.params}


def sample_spec(name, d, ctx, rng, height=DEFAULT_HEIGHT, mode=MODE_GENERIC):
    """Draw a valid TypeSpec; raises SamplingExhausted after DEFAULT_RETRIES
    rejected draws (read at each call).

    Raises InvalidMode when modes_for_type(name, d, ctx) does not list the mode.
    """
    rows = _forced_rows(name, d, ctx).get(mode)
    if rows is None:
        raise InvalidMode(f"{name.value} has no sampling mode {mode!r} at d={d}")
    fam = FAMILIES[name]
    self_dual = mode in (MODE_SELF_DUAL, MODE_SELF_DUAL_SPIN)
    forced = {target: value for row in rows for target, value in row.eqs}
    mirrored = any(row.mirrored for row in rows)
    for _ in range(DEFAULT_RETRIES):
        theta0, theta_star0, params = _draw(fam, d, ctx, rng, height, self_dual,
                                            forced, mirrored)
        spec = TypeSpec(name, d, ctx, theta0, theta_star0, params)
        if not validate_spec(spec):
            return spec
    raise SamplingExhausted(
        f"no valid {name.value} sample for d={d} mode={mode} "
        f"within {DEFAULT_RETRIES} retries")
