"""Exact-arithmetic toolkit for Leonard systems and their zero diagonal spaces.

Construct any of the 13 parameter-array families over Q, GF(p) or
GF(p^k); realize them as the split pair, a lower and an upper bidiagonal
matrix held as their four diagonals (Realization), with exact spectral
projections in closed form and the tridiagonal intersection numbers of
the standard basis; compute the zero diagonal space by rank and by
closed form; and verify the classification tables (nonzero-space
conditions, dimension-2 rows, boundary-product relations, self-duality,
spin) with exact randomized identity testing.
"""

from .analysis import (
    InstanceChecks,
    analyze_instance,
    dim2_predicate,
    factor_for_type,
    pi2_delta,
    q_expression,
    relation_check,
    relation_coefficients,
    self_dual_array_check,
    self_dual_predicate,
    spin_predicate,
    verify_pi2,
    z_nonzero_predicate,
)
from .campaign import CampaignReport, render_report, run_campaign
from .counterexample import counterexample_d2
from .exactfield import (
    ExtensionField,
    FieldContext,
    PrimeField,
    Rationals,
    field_arith,
    parse_field,
    sample_element,
)
from .parray import (
    ALL_TYPES,
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
from .realization import (
    IntersectionNumbers,
    Realization,
    intersection_a_closed,
    intersection_a_trace,
    primitive_idempotents,
    realize_split,
    standard_basis_rep,
    verify_axioms,
)
from .sampling import modes_for_type, sample_spec
from .zerodiag import (
    APMData,
    ZSpaceReport,
    build_zspace_report,
    compute_apm,
    has_zero_diagonal,
    matrix_l,
    matrix_m,
    matrix_t,
    x_space_basis,
    z_basis_kernel,
)

__version__ = "0.1.0"
