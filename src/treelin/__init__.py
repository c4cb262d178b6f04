"""Formal linearization of germs and vector fields by tree-sum Lagrange inversion.

The package computes the tangent-to-identity change of variables solving
the Siegel center problem and the straightening of a vector field near a
non-resonant singular point, three independent ways (order-by-order
recursion, explicit sums over labeled rooted trees, a generic
non-expanding fixed point), together with the small-divisor arithmetic of
the Bruno condition and coefficient-growth diagnostics for Gevrey-type
classes.
"""

import importlib.util
import sys


def _register_deferred(name: str):
    """Register treelin.<name> in ``sys.modules`` now and run its code on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Only the tree method, the tree counts and the growth diagnostics need these
# two, so `treelin linearize --method recursive|fixedpoint` never runs them.
# They are bound here, before any other submodule is imported, so that
# `from . import trees` finds the deferred module instead of loading it.
trees = _register_deferred("trees")
diagnostics = _register_deferred("diagnostics")

from . import divisors, errors, linearize, series  # noqa: E402

# the public names, by the submodule that defines them
_EXPORTS = {
    "diagnostics": (
        "ClassSpec", "class_membership", "condition_sequence", "germ_family_radius",
        "growth_report", "majorant_partial_sums", "validate_class",
        "vf_domain_estimate",
    ),
    "divisors": (
        "ContinuedFraction", "FieldSpectrum", "GermSpectrum", "apply_forward_D",
        "apply_inverse_D", "bruno_proxy", "bruno_series_1d", "bruno_sum",
        "continued_fraction", "frac_distance", "is_resonant_field", "is_resonant_germ",
        "omega_frac", "omega_hat", "omega_tilde", "phi_counting",
    ),
    "errors": (
        "CoefficientOverflow", "CompositionError", "DivisorBelowTolerance",
        "FamilyViolation", "HypothesisViolated", "NoContraction", "RationalDetected",
        "ResonantSpectrum", "TreelinError", "TruncationMismatch", "UsageError",
    ),
    "linearize": (
        "Germ", "IdentityOperator", "InverseDivisorOperator", "Linearization",
        "VectorField", "classical_lagrange_1d", "fixed_point_inversion", "solve",
        "solve_fixedpoint_field", "solve_fixedpoint_germ", "solve_recursive_field",
        "solve_recursive_germ", "solve_tree_field", "solve_tree_germ", "verify_conjugacy",
    ),
    "series": (
        "ScalarSeries", "SeriesFamily", "VectorSeries", "abs_degree", "degree",
        "formal_derivative", "shift_expand", "signed_degree", "weighted_norm",
    ),
    "trees": (
        "LabeledTree", "ScaleSequence", "count_scale", "counting_bound",
        "enumerate_forest", "enumerate_labeled", "iter_forest_chunks", "recompose",
        "scale_of_line", "standard_decomposition", "tree_value",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
