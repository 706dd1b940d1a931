"""Type-level classification results as executable exact predicates.

This module evaluates the per-family tables kept in families.FAMILIES: the
interior-identity factor, the nonzero-space and dimension-2 condition
rows, the linear relation between the boundary products, the self-dual
and spin characterizations.  analyze_instance runs one instance through
the whole pipeline and cross-checks every route against every other.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg, zerodiag
from .errors import (
    DependenceDetected,
    IdentityFailure,
    IndexOutOfRange,
    TableInconsistency,
)
from .families import FAMILIES
from .parray import build_parameter_array
from .realization import (
    intersection_a_closed,
    intersection_a_trace,
    # Not called here: the benchmark's tracer wraps this name in this module.
    primitive_idempotents,  # noqa: F401
    realize_split,
    standard_basis_rep,
    verify_axioms,
)


# ---------------------------------------------------------------------------
# the interior identity and its factor table


def pi2_delta(a, theta_star, i, j):
    """Left minus right side of the interior product identity at (i, j)."""
    d = len(a) - 1
    if not (1 <= i <= d - 1 and 1 <= j <= d - 1):
        raise IndexOutOfRange(f"(i,j)=({i},{j}) outside 1..{d - 1}")
    ts = theta_star
    lhs = (a[i] - a[0]) * (ts[i] - ts[d]) * (a[j] - a[d]) * (ts[j] - ts[0])
    rhs = (a[i] - a[d]) * (ts[i] - ts[0]) * (a[j] - a[0]) * (ts[j] - ts[d])
    return lhs - rhs


def q_expression(theta_star, i, j):
    """The dual-eigenvalue cross-ratio multiplying the factor table entry."""
    d = len(theta_star) - 1
    if not (1 <= i <= d - 1 and 1 <= j <= d - 1):
        raise IndexOutOfRange(f"(i,j)=({i},{j}) outside 1..{d - 1}")
    ts = theta_star
    num = ((ts[0] - ts[i]) * (ts[0] - ts[j]) * (ts[0] - ts[d])
           * (ts[i] - ts[j]) * (ts[i] - ts[d]) * (ts[j] - ts[d]))
    den = ((ts[0] - ts[1]) * (ts[i - 1] - ts[i]) * (ts[i] - ts[i + 1])
           * (ts[j - 1] - ts[j]) * (ts[j] - ts[j + 1]) * (ts[d - 1] - ts[d]))
    return num / den


def factor_for_type(spec):
    """The per-family constant relating the interior identity to the cross-ratio."""
    return FAMILIES[spec.name].factor(spec.params, spec.d, spec.field)


def verify_pi2(spec, arr=None, a=None, apm=None):
    """Check delta(i,j) == Q(i,j) * factor exactly for all interior (i, j),
    with factor = factor_for_type(spec), and return the sides: the map
    {(i, j): (delta, Q)} for 1 <= i, j <= d - 1.

    Both sides factor through terms built once per index.  With the
    boundary products a_minus, a_plus of zerodiag.compute_apm,
    pi2_delta is delta(i,j) = a_minus_i a_plus_j - a_plus_i a_minus_j.
    With alpha_i = (ts_0 - ts_i)(ts_i - ts_d) / ((ts_{i-1} - ts_i)(ts_i - ts_{i+1}))
    and c = (ts_0 - ts_d) / ((ts_0 - ts_1)(ts_{d-1} - ts_d)), q_expression
    is Q(i,j) = alpha_i alpha_j c (ts_i - ts_j).  Both sides are
    antisymmetric in (i, j) and vanish at i = j, so each pair i < j is
    tested once and (j, i) gets the negated sides.  A failure names the
    first failing pair in row-major order: a failure at (j, i) with j > i
    is one at (i, j) too.  A caller that already holds the boundary
    products of a (InstanceChecks.apm) passes them as apm.
    """
    if arr is None:
        arr = build_parameter_array(spec)
    if a is None:
        a = intersection_a_closed(arr)
    factor = factor_for_type(spec)
    d, ts, zero = spec.d, arr.theta_star, arr.field.zero
    if apm is None:
        apm = zerodiag.compute_apm(a, ts)
    am, ap = apm.a_minus, apm.a_plus
    c = (ts[0] - ts[d]) / ((ts[0] - ts[1]) * (ts[d - 1] - ts[d]))
    alpha = [None] + [(ts[0] - ts[i]) * (ts[i] - ts[d])
                      / ((ts[i - 1] - ts[i]) * (ts[i] - ts[i + 1])) for i in range(1, d)]
    sides = {}
    for i in range(1, d):
        sides[i, i] = zero, zero
        alpha_c = alpha[i] * c
        for j in range(i + 1, d):
            delta = am[i] * ap[j] - ap[i] * am[j]
            q_val = alpha_c * alpha[j] * (ts[i] - ts[j])
            rhs = q_val * factor
            if delta != rhs:
                raise IdentityFailure(i, j, delta, rhs)
            sides[i, j] = delta, q_val
            sides[j, i] = -delta, -q_val
    return sides


# ---------------------------------------------------------------------------
# condition tables


def _z_row(spec):
    """The first nonzero-space row the spec satisfies, or None."""
    for row in FAMILIES[spec.name].z_rows:
        if row.holds(spec.params, spec.d, spec.field):
            return row
    return None


def _condition_id(spec, row):
    return f"{spec.name.value}:{row.name}" if row.name else spec.name.value


def z_nonzero_predicate(spec):
    """Table route for Z != 0: (boolean, satisfied condition id or None)."""
    row = _z_row(spec)
    if row is None:
        return False, None
    return True, _condition_id(spec, row)


def dim2_predicate(spec):
    """Table route for dim Z = 2."""
    return any(row.holds(spec.params, spec.d, spec.field)
               for row in FAMILIES[spec.name].dim2)


def relation_coefficients(spec):
    """The (u, v, row id) of the linear relation u*a_minus_i = v*a_plus_i.

    Returns None when the instance has Z = 0 (no relation row applies).
    """
    row = _z_row(spec)
    if row is None:
        return None
    u, v = row.relation(spec.params, spec.d, spec.field)
    return u, v, _condition_id(spec, row)


def relation_check(apm, u, v):
    """Whether u*a_minus_i == v*a_plus_i for every index."""
    for am, ap in zip(apm.a_minus, apm.a_plus):
        if u * am != v * ap:
            return False
    return True


def self_dual_predicate(spec):
    """Spec-level self-duality: admissible type plus the per-type equality row."""
    row = FAMILIES[spec.name].self_dual
    return (row is not None and spec.theta0 == spec.theta_star0
            and row.holds(spec.params, spec.d, spec.field))


def self_dual_array_check(arr):
    """Array-level self-duality: the two eigenvalue sequences coincide.

    When they do, the second split sequence must also be palindromic;
    a non-palindromic phi2 in that case signals an internal error.
    """
    if any(t != ts for t, ts in zip(arr.theta, arr.theta_star)):
        return False
    d = arr.d
    for i in range(1, d + 1):
        if arr.phi2_at(i) != arr.phi2_at(d - i + 1):
            raise TableInconsistency(
                f"self-dual array with non-palindromic phi2 at {i}")
    return True


def spin_table_predicate(spec):
    """Spin via the per-type condition table (valid for self-dual specs)."""
    return self_dual_predicate(spec) and any(
        row.holds(spec.params, spec.d, spec.field) for row in FAMILIES[spec.name].spin)


def spin_predicate(spec):
    """Spin via self-duality plus a nonzero space, cross-checked per type."""
    characterization = self_dual_predicate(spec) and z_nonzero_predicate(spec)[0]
    table = spin_table_predicate(spec)
    if characterization != table:
        raise TableInconsistency(
            f"spin routes disagree on {spec.name.value}: "
            f"characterization={characterization} table={table}")
    return characterization


# ---------------------------------------------------------------------------
# one-instance pipeline with all cross-checks


@dataclass
class InstanceChecks:
    """Everything computed for one instance, plus named consistency flags."""

    spec: object
    arr: object
    nums: object
    a: list
    apm: object
    zreport: object
    z_nonzero_pred: bool
    z_condition: object
    dim2_pred: bool
    self_dual: bool
    spin: object
    spin_routes: object
    relation_row: object
    flags: dict = dc_field(default_factory=dict)

    @property
    def failures(self):
        return [name for name, ok in sorted(self.flags.items()) if not ok]

    @property
    def ok(self):
        return not self.failures


def analyze_instance(spec, arr=None, deep=False):
    """Run the full pipeline on one instance and cross-check every route.

    The split pair is its four diagonals (realize_split); no n x n split
    matrix is formed.  E* comes from the upper bidiagonal A*, E from the
    upper bidiagonal A^T, each through the closed form of its right
    eigenvectors (realization's _TauStar): U[r][j] = L^r tau*_r(theta*_j)
    for E*, and the same construction on A^T for E, whose eigenvectors
    are the left factors w_i of E_i, with V* = P^-1 U C for diagonal P
    and C.  No V, W or V* is formed, on any field: U holds cleared ints
    over Q, residues over GF(p) and field elements over GF(p^k).  The fast
    path forms nothing of E.  Of E* it builds the closed form U once, in
    either mode (Realization.u_star), and standard_basis_rep reads the
    E* A E* band off it; the a-trace reads of w*_i A v*_i only the entries
    v*_(i+1)[i] and w*_i[i + 1], off the pair's theta* and sup
    (intersection_a_trace).  standard_basis_rep runs before it, so that
    its closed form names a repeated theta* before the a-routes divide by
    theta*_i - theta*_(i+1).  The standard basis {E*_i u} takes the
    band T of V*^-1 A V* as the band of T' = C T C^-1, certified in O(n^2)
    by A' U = U T' without V*^-1.  The intersection numbers come off that
    band in O(n) by the row sums c_(i-1) + a_i + b_i = theta_0 of the
    standard basis, with b_i c_i = t'_(i,i+1) t'_(i+1,i), so neither C
    nor the scale D_i = w*_i . u is formed.  A failure names entries of T
    and D, converted from T' on the failure path only.  No dense
    projection or basis matrix is formed, so the a_trace and a_standard
    flags compare two different computations with the closed form.  The
    zero diagonal space is computed in the standard basis, where A* is
    diag(theta*), A is tridiagonal with the intersection numbers, and the
    test E*_i X E*_i = 0 reads X_ii = 0.  No matrix of that space is
    formed: the zero-diagonal flags read the n entries
    X_ii = f0 + f1 theta*_i + a_i (f2 + f3 theta*_i) off theta* and nums.a,
    closed_generator_nonzero adds the band entries
    b_i (f2 + f3 theta*_(i+1)) and c_i (f2 + f3 theta*_i), and the
    commutator's diagonal is a_i theta*_i - theta*_i a_i.
    x_generators_independent is one 5 x 5 determinant of entries of
    I, A*, A, A A* and A* A (zerodiag.x_space_basis), with theta* the
    array's.  Only the analyze report forms the kernel's matrices, by
    reading zreport.matrix_basis (IntersectionNumbers.matrix).  The span
    flags compare the kernel's coefficient vectors with those of the
    closed forms, four entries each:
    the map from coefficients to matrices is linear, and injective once
    x_generators_independent holds, so they read as the tests on the
    n^2-flattened matrices would.

    With deep=True, verify_axioms certifies both families on their closed
    forms, M' U = U diag(theta) for E of A^T and E* of A*, with the theta
    distinct by the diagonals of the U, and certifies the E A* E band,
    the transpose of the band of A*^T on E's closed form; that call is the
    only difference between the modes.
    standard_basis_rep then certifies the E* A E* band as in fast mode,
    on the U of E* that verify_axioms built (Realization.u_star), so a
    deep verdict builds two closed forms and a fast one one.
    No factor is formed as field elements, no n x n transpose (A^T and
    A*^T are the pair's diagonals, read in place) and no n x n product
    of the factors, and a failed certificate names the family and the
    eigenvector, or an entry off the band and its value.  The spectral
    product formula, the definition, is not called: it serves the 3 x 3
    boundary example (counterexample) and the tests' reference.  The
    analyze command and the worked-instance tests use deep mode, the
    sampling campaign does not.
    """
    if arr is None:
        arr = build_parameter_array(spec)
    ctx = arr.field
    d = arr.d
    flags = {}

    real = realize_split(arr)
    if deep:
        verify_axioms(real)
    nums = standard_basis_rep(real)
    a = intersection_a_closed(arr)
    flags["a_trace_equals_closed"] = a == intersection_a_trace(real)
    flags["a_standard_equals_closed"] = nums.a == a

    zreport = zerodiag.build_zspace_report(arr, a, nums)
    rank_m, dim_z = zreport.rank_m, zreport.dim_z
    flags["L_equals_TM"] = zreport.L == linalg.mat_mul(zreport.T, zreport.M)
    flags["det_T_value"] = linalg.det(zreport.T) == arr.theta_star[0] - arr.theta_star[d]
    flags["rank_L_equals_rank_M"] = linalg.rank(zreport.L) == rank_m
    flags["rank_bounds"] = 2 <= rank_m <= 4
    flags["kernel_dimension_matches"] = len(zreport.coeff_basis) == dim_z
    apm = zreport.apm
    ts = arr.theta_star

    try:
        zerodiag.x_space_basis(nums, ts, ctx)
        flags["x_generators_independent"] = True
    except DependenceDetected:
        flags["x_generators_independent"] = False
    # (A A*)_ii - (A* A)_ii, as A* = diag(theta*)
    flags["commutator_zero_diagonal"] = all(not (x * t - t * x) for x, t in zip(nums.a, ts))

    dep_rank, dep_full, dep_interior = zerodiag.dependence_equivalences(apm)
    flags["dependence_equivalences"] = (
        dep_rank == dep_full == dep_interior == (dim_z > 0))

    z_pred, z_condition = z_nonzero_predicate(spec)
    flags["z_nonzero_table_matches_rank"] = z_pred == (dim_z > 0)
    d2_pred = dim2_predicate(spec)
    flags["dim2_table_matches_rank"] = d2_pred == (dim_z == 2)

    kernel = zreport.coeff_basis

    relation_row = None
    if z_pred:
        u, v, relation_row = relation_coefficients(spec)
        flags["relation_holds"] = relation_check(apm, u, v)
        gen = zerodiag.closed_dim1_coefficients(arr, a, u, v)
        gen_diagonal = zerodiag.combination_diagonal(gen, ts, nums.a)
        flags["closed_generator_nonzero"] = (
            any(gen_diagonal) or zerodiag.band_nonzero(gen, ts, nums))
        flags["closed_generator_zero_diagonal"] = not any(gen_diagonal)
        flags["closed_generator_in_kernel_span"] = linalg.in_row_span(kernel, gen)
        if dim_z == 1:
            flags["dim1_spans_match"] = linalg.same_row_span(kernel, [gen])

    if dim_z == 2:
        flags["dim2_constant_a"] = all(x == a[0] for x in a)
        flags["dim2_kernel_structure"] = all(
            f0 + f2 * a[0] == ctx.zero and f1 + f3 * a[0] == ctx.zero
            for f0, f1, f2, f3 in kernel)
        pair = zerodiag.closed_dim2_coefficients(a[0], ctx)
        flags["dim2_pair_zero_diagonal"] = not any(
            x for c in pair for x in zerodiag.combination_diagonal(c, ts, nums.a))
        flags["dim2_pair_spans"] = linalg.same_row_span(kernel, pair)

    sd_pred = self_dual_predicate(spec)
    spin = spin_predicate(spec)
    spin_routes = None
    if sd_pred:
        flags["self_dual_array_consistent"] = self_dual_array_check(arr)
        route_rank = dim_z > 0
        route_table = spin_table_predicate(spec)
        route_products = dep_full
        spin_routes = (route_rank, route_table, route_products)
        flags["spin_routes_agree"] = route_rank == route_table == route_products

    return InstanceChecks(
        spec=spec, arr=arr, nums=nums, a=a, apm=apm, zreport=zreport,
        z_nonzero_pred=z_pred, z_condition=z_condition, dim2_pred=d2_pred,
        self_dual=sd_pred, spin=spin, spin_routes=spin_routes,
        relation_row=relation_row, flags=flags)
