"""Momentum ray transforms and Saint Venant operators, exactly verified.

The package computes momentum ray transforms of symmetric tensor fields whose
components are polynomials times a Gaussian, together with the differential
operators that describe the transform kernels, in exact rational arithmetic.
The verify module turns every identity between these objects into a seeded
pass/fail suite with a command line front end.
"""

from .symtensor import (
    BiSymTensor,
    RawTensor,
    SymTensor,
    all_canonical_tuples,
    alternate,
    canonical,
    restrict,
    symmetrize,
    tuple_multiplicity,
)
from .polygauss import (
    ExactValue,
    LineTable,
    PolyGauss,
    Polynomial,
    field_scale_report,
    line_moment,
    line_moment_quadrature,
    random_field,
    rational_sqrt,
    sym_field,
)
from .diffops import (
    alternated_derivative,
    alternated_from_saint_venant,
    generalized_saint_venant,
    inner_derivative,
    iterate_d,
    restriction_relation_residual,
    saint_venant,
    saint_venant_from_alternated,
)
from .moments import (
    MomentExpression,
    PhasePoint,
    TSPoint,
    collapsed_derivative_residual,
    dx,
    dxi,
    extended_from_moments,
    extended_transform,
    john,
    john_power_residual,
    moment_stack,
    moment_transform,
    random_float_ts_point,
    random_phase_point,
    random_ts_point,
    rational_unit_vector,
    recover_restricted,
    restriction_contraction_residual,
    symmetrization_split_residual,
    symmetrized_derivative_residual,
)
from .verify import (
    SuiteConfig,
    SuiteResult,
    generate_potential,
    main,
    parse_field,
    run_suites,
    serialize_field,
    suite_identities,
    suite_kernel,
)

__version__ = "0.1.0"
