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


# Each command runs only the modules it uses (README, "Module map"): these
# are registered here, as treelin.series and so on, before any other
# submodule is imported, so that `from . import trees` anywhere finds the
# deferred module instead of loading it.  Their code runs on the first
# attribute access, so a process loads numpy only when its command computes.
globals().update((name, _register_deferred(name)) for name in (
    "series", "divisors", "linearize", "trees", "treesum", "families", "bruno", "diagnostics",
    "documents", "commands", "fixture"))

from . import errors  # noqa: E402

# the public names, by the submodule that defines them
_EXPORTS = {
    "bruno": (
        "ContinuedFraction", "bruno_proxy", "bruno_series_1d", "bruno_sum",
        "continued_fraction", "frac_distance", "omega_frac", "omega_hat", "omega_tilde",
        "phi_counting",
    ),
    "diagnostics": (
        "ClassSpec", "class_membership", "condition_sequence", "germ_family_radius",
        "growth_report", "majorant_partial_sums", "validate_class",
        "vf_domain_estimate",
    ),
    "divisors": (
        "FieldSpectrum", "GermSpectrum", "apply_forward_D", "apply_inverse_D", "divisor_table",
    ),
    "errors": (
        "CoefficientOverflow", "CompositionError", "ConjugacyDefect",
        "DivisorBelowTolerance", "FamilyViolation", "HypothesisViolated", "NoContraction",
        "RationalDetected", "ResonantSpectrum", "ResourceLimit", "TreelinError",
        "TruncationMismatch", "UsageError",
    ),
    "families": (
        "SeriesFamily", "formal_derivative", "shift_expand", "weighted_norm",
    ),
    "indices": ("abs_degree", "degree", "signed_degree"),
    "linearize": (
        "Germ", "Linearization", "VectorField", "classical_lagrange_1d",
        "fixed_point_inversion", "majorant", "solve", "verify_conjugacy",
    ),
    "series": ("ScalarSeries", "VectorSeries"),
    "trees": (
        "LabeledTree", "ScaleSequence", "count_scale", "counting_bound",
        "enumerate_forest", "enumerate_labeled", "scale_of_line",
        "standard_decomposition", "tree_value",
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
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
