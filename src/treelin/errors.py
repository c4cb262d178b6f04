"""Domain exceptions shared across the package."""

from __future__ import annotations


class TreelinError(Exception):
    """Base class for all domain errors raised by treelin."""


class TruncationMismatch(TreelinError, ValueError):
    """Two series with different variable counts or truncation degrees were combined."""


class CompositionError(TreelinError, ValueError):
    """Composition requested with an inner series of valuation zero."""


class DivisorBelowTolerance(TreelinError):
    """A small divisor fell below the resonance tolerance.

    Carries the offending multi-index, axis and modulus so callers can report
    the near-resonance precisely.
    """

    def __init__(self, index, axis, modulus):
        self.index = tuple(index)
        self.axis = axis
        self.modulus = modulus
        super().__init__(
            f"divisor at index {self.index}, axis {axis} has modulus "
            f"{modulus:.3e} below tolerance"
        )


class CoefficientOverflow(TreelinError):
    """A coefficient of a computed series is not finite: its growth left double precision.

    ``degree`` is the first degree holding a non-finite coefficient, and
    ``series`` names the series: the solution "h", or "the majorant M".
    """

    def __init__(self, degree, series="h"):
        self.degree = degree
        self.series = series
        super().__init__(
            f"{series} has a non-finite coefficient at degree {degree}: "
            f"its growth overflows double precision"
        )


class ResonantSpectrum(TreelinError):
    """An Omega value hit (near-)zero while accumulating a Bruno sum."""


class ConjugacyDefect(TreelinError):
    """A solution h fails the conjugacy check: its relative defect exceeds the tolerance.

    Nothing about the spectrum need be resonant; the given h is not the
    linearization of the problem it was checked against.
    """


class ResourceLimit(TreelinError):
    """A solve needs more at this n and D than the process may take: memory, or a count limit.

    Carries the ``route``, ``n`` and ``D`` of the solve and the ``cause`` its message names.
    """

    def __init__(self, route, n, D, cause):
        self.route = route
        self.n = n
        self.D = D
        self.cause = cause
        super().__init__(f"the {route} route {cause} at n={n}, D={D}")


class RationalDetected(TreelinError):
    """Continued-fraction expansion terminated: the input is rational to working precision.

    The partial expansion computed so far is attached as ``partial``.
    """

    def __init__(self, partial, message="rational input detected"):
        self.partial = partial
        super().__init__(message)


class NoContraction(TreelinError):
    """Fixed-point iteration failed to gain valuation; a precondition is violated."""


class HypothesisViolated(TreelinError):
    """A weight-sequence hypothesis failed at the reported indices."""

    def __init__(self, hypothesis, k, l=None):
        self.hypothesis = hypothesis
        self.k = k
        self.l = l
        where = f"k={k}" if l is None else f"k={k}, l={l}"
        super().__init__(f"hypothesis {hypothesis} violated at {where}")


class FamilyViolation(TreelinError):
    """A vector field fails the normalized-family bound |f_{alpha,j}| <= 1."""

    def __init__(self, index, axis, modulus):
        self.index = tuple(index)
        self.axis = axis
        self.modulus = modulus
        super().__init__(
            f"coefficient at index {self.index}, axis {axis} has modulus "
            f"{modulus:.6f} > 1"
        )


class UsageError(TreelinError):
    """Command-line usage error (bad flags, unreadable files, schema violations)."""
