"""Formal linearization of germs and vector fields by tree-sum Lagrange inversion.

The package computes the tangent-to-identity change of variables solving
the Siegel center problem and the straightening of a vector field near a
non-resonant singular point, three independent ways (order-by-order
recursion, explicit sums over labeled rooted trees, a generic
non-expanding fixed point), together with the small-divisor arithmetic of
the Bruno condition and coefficient-growth diagnostics for Gevrey-type
classes.
"""

from .diagnostics import (
    ClassSpec,
    class_membership,
    condition_sequence,
    germ_family_radius,
    growth_report,
    majorant_partial_sums,
    validate_class,
    vf_domain_estimate,
)
from .divisors import (
    ContinuedFraction,
    FieldSpectrum,
    GermSpectrum,
    apply_forward_D,
    apply_inverse_D,
    bruno_proxy,
    bruno_series_1d,
    bruno_sum,
    continued_fraction,
    frac_distance,
    is_resonant_field,
    is_resonant_germ,
    omega_frac,
    omega_hat,
    omega_tilde,
    phi_counting,
)
from .errors import (
    CoefficientOverflow,
    CompositionError,
    DivisorBelowTolerance,
    FamilyViolation,
    HypothesisViolated,
    NoContraction,
    RationalDetected,
    ResonantSpectrum,
    TreelinError,
    TruncationMismatch,
    UsageError,
)
from .linearize import (
    Germ,
    IdentityOperator,
    InverseDivisorOperator,
    Linearization,
    VectorField,
    classical_lagrange_1d,
    fixed_point_inversion,
    solve,
    solve_fixedpoint_field,
    solve_fixedpoint_germ,
    solve_recursive_field,
    solve_recursive_germ,
    solve_tree_field,
    solve_tree_germ,
    tree_value,
    verify_conjugacy,
)
from .series import (
    ScalarSeries,
    SeriesFamily,
    VectorSeries,
    abs_degree,
    degree,
    formal_derivative,
    shift_expand,
    signed_degree,
    weighted_norm,
)
from .trees import (
    LabeledTree,
    ScaleSequence,
    count_scale,
    counting_bound,
    enumerate_forest,
    enumerate_labeled,
    iter_forest_chunks,
    recompose,
    scale_of_line,
    standard_decomposition,
)

__version__ = "0.1.0"
