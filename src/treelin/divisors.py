"""Spectra, their small divisors, and the divisor operators the solvers divide by.

Two kinds of spectra appear: eigenvalues ``lambda`` of a diagonal germ, with
divisors ``lambda^nu - lambda_j``, and eigenvalues ``omega`` of a diagonal
vector field, with divisors ``omega . nu - omega_j``.  Momenta ``nu`` may
have negative entries; powers of the ``lambda_i`` use inverses there.

A divisor whose modulus falls below ``RESONANCE_TOL`` makes division fail
loudly instead of amplifying noise.  For rotation spectra every divisor is
lambda_j * 2i sin(pi x) e^(i pi x), x = nu.omega - omega_j reduced mod 1, so
its modulus agrees with ``divisor_modulus`` near resonance.  The divisor
operators take a :func:`divisor_table`, not a spectrum.

Every solve runs this module.  The Omega minima, the counting indicator,
the Bruno sums and continued fractions live in :mod:`treelin.bruno`, which
no solver runs; ``divisors.bruno_proxy`` still resolves there, by name.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DivisorBelowTolerance, TruncationMismatch, UsageError
from .indices import slot_count
from .records import Record
from .series import VectorSeries, graded_indices

# A divisor modulus (or an Omega value of the Bruno sums) below this is a
# resonance: every route raises or clips there, the tree route line by line.
RESONANCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class GermSpectrum(Record, defaults={"rotation": None}):
    """Pairwise-distinct nonzero eigenvalues of a diagonal germ.

    When every eigenvalue has modulus one a rotation vector may be supplied
    (or is implied by :meth:`from_rotation`); divisors and their moduli are
    then evaluated through the stable forms
    lambda_j * 2i sin(pi x) e^(i pi x) and 2|sin(pi x)|, where
    x = nu.omega - omega_j reduced mod 1.
    """

    __slots__ = ("lam", "rotation")

    def __post_init__(self):
        lam = tuple(complex(x) for x in self.lam)
        object.__setattr__(self, "lam", lam)
        if any(x == 0 for x in lam):
            raise ValueError("eigenvalues must be nonzero")
        for i in range(len(lam)):
            for k in range(i + 1, len(lam)):
                if lam[i] == lam[k]:
                    raise ValueError("eigenvalues must be pairwise distinct")
        if self.rotation is not None:
            rot = tuple(float(w) for w in self.rotation)
            if len(rot) != len(lam):
                raise ValueError("rotation vector length mismatch")
            object.__setattr__(self, "rotation", rot)

    @classmethod
    def from_rotation(cls, rotation):
        rotation = tuple(float(w) for w in rotation)
        lam = tuple(cmath.exp(2j * math.pi * w) for w in rotation)
        return cls(lam, rotation)

    @property
    def n(self) -> int:
        return len(self.lam)

    def power(self, nu) -> complex:
        if self.rotation is not None:
            return cmath.exp(2j * math.pi * sum(v * w for v, w in zip(nu, self.rotation)))
        out = 1.0 + 0j
        for base, e in zip(self.lam, nu):
            out *= base ** e
        return out

    def _offset(self, nu, j: int) -> float:
        """nu.omega - omega_j reduced to [-1/2, 1/2]; lambda^nu / lambda_j = e^(2 pi i x)."""
        dot = 0.0
        for v, w in zip(nu, self.rotation):
            dot += v * w
        x = dot - self.rotation[j]
        return x - round(x)

    def divisor(self, nu, j: int) -> complex:
        if self.rotation is not None:
            x = self._offset(nu, j)
            return self.lam[j] * (2j * math.sin(math.pi * x)) * cmath.exp(1j * math.pi * x)
        return self.power(nu) - self.lam[j]

    def divisor_modulus(self, nu, j: int) -> float:
        if self.rotation is not None:
            return 2.0 * abs(math.sin(math.pi * self._offset(nu, j)))
        return abs(self.divisor(nu, j))


class FieldSpectrum(Record):
    """Eigenvalues of the diagonal linear part of a vector field."""

    __slots__ = ("omega",)

    def __post_init__(self):
        omega = tuple(complex(x) for x in self.omega)
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return len(self.omega)

    def divisor(self, nu, j: int) -> complex:
        return sum(v * w for v, w in zip(nu, self.omega)) - self.omega[j]

    def divisor_modulus(self, nu, j: int) -> float:
        return abs(self.divisor(nu, j))


# ---------------------------------------------------------------------------
# the divisor operators
# ---------------------------------------------------------------------------


def divisor_table(spectrum, D: int) -> VectorSeries:
    """The divisors over the graded-lex slots of degree <= D, as a vector series.

    Row j, slot alpha holds ``spectrum.divisor(alpha, j)``: all the routes
    and the operators below know of a spectrum.  The table of truncation d
    is ``truncate(d)`` of any larger one.  A divisor beyond double precision
    is a :class:`UsageError`: no route could divide by it or check it.
    """
    indices = graded_indices(spectrum.n, D)
    try:
        rows = np.array([[spectrum.divisor(alpha, j) for alpha in indices]
                         for j in range(spectrum.n)], dtype=complex)
        finite = np.isfinite(rows).all()
    except OverflowError:  # complex ** of a germ eigenvalue
        finite = False
    if not finite:
        raise UsageError(f"the spectrum's divisors of degree <= {D} overflow double precision")
    return VectorSeries.from_array(spectrum.n, D, rows)


def _slots(table: VectorSeries, lo: int, width: int):
    """Columns ``lo : lo + width`` of the table, or :class:`TruncationMismatch` if it stops short."""
    if slot_count(table.n, table.trunc) < lo + width:
        raise TruncationMismatch(f"the divisor table stops at degree {table.trunc}")
    return table.to_array()[:, lo:lo + width]


def apply_inverse_D(table: VectorSeries, g: VectorSeries, clipped: list | None = None) -> VectorSeries:
    """Per-monomial division by the divisors of ``table``; preserves the valuation.

    Requires valuation(g) >= 2.  A nonzero coefficient whose divisor has
    modulus below ``RESONANCE_TOL`` raises :class:`DivisorBelowTolerance`
    for the first such (alpha, j) in graded-lex order, instead of emitting a
    huge coefficient.  Given a list ``clipped``, those coefficients become
    zero instead, and each (alpha, j, modulus) is appended to it.
    """
    if not g.is_zero() and g.valuation() < 2:
        raise ValueError("inverse divisor operator is defined on valuation >= 2")
    out = divide_slots(table, g.to_array(), 0, clipped)
    return VectorSeries.from_array(g.n, g.trunc, out)


def divide_slots(table: VectorSeries, values, lo: int, clipped: list | None = None):
    """Divide an ``(n, width)`` array holding slots ``lo : lo + width`` by those of ``table``.

    The division behind :func:`apply_inverse_D`, with the tolerance rule of
    :func:`small_divisors` and :func:`settle_small_divisors`: a nonzero
    value over a divisor of modulus below ``RESONANCE_TOL`` raises, or,
    given a list ``clipped``, becomes zero and is recorded there.
    """
    nonzero = values != 0
    small, bad = small_divisors(table, nonzero, lo)
    settle_small_divisors(bad, clipped)
    divs = _slots(table, lo, values.shape[1])
    return np.divide(values, divs, out=np.zeros_like(values), where=nonzero & ~small)


def small_divisors(table: VectorSeries, nonzero, lo: int):
    """The resonance test of the solvers, on an ``(n, width)`` block of slots ``lo : lo + width``.

    Returns the mask of the ``nonzero`` entries whose divisor in ``table``
    has modulus below ``RESONANCE_TOL``, and one (alpha, j, modulus) record
    per such entry in graded-lex order (by slot, then axis).
    """
    modulus = np.abs(_slots(table, lo, nonzero.shape[1]))
    small = nonzero & (modulus < RESONANCE_TOL)
    if not small.any():
        return small, []
    indices = graded_indices(table.n, table.trunc)
    slots, axes = np.nonzero(small.T)
    return small, [(indices[lo + i], j, float(modulus[j, i]))
                   for i, j in zip(slots.tolist(), axes.tolist())]


def settle_small_divisors(bad, clipped: list | None):
    """Raise :class:`DivisorBelowTolerance` for the first record of ``bad``, or append them all to ``clipped``."""
    if clipped is not None:
        clipped.extend(bad)
    elif bad:
        raise DivisorBelowTolerance(*bad[0])


def apply_forward_D(table: VectorSeries, g: VectorSeries) -> VectorSeries:
    """Per-monomial multiplication by the divisors of ``table`` (the forward operator)."""
    divs = _slots(table, 0, slot_count(g.n, g.trunc))
    return VectorSeries.from_array(g.n, g.trunc, g.to_array() * divs)


# The benchmark's tracer still looks this up here.  Only it is forwarded: the
# import system probes other attributes (__path__) on every
# `from .divisors import ...`, and a catch-all would run treelin.bruno.
_MOVED = ("bruno_proxy",)


def __getattr__(name: str):
    if name in _MOVED:
        from . import bruno

        return getattr(bruno, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
