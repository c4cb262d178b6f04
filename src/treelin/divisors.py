"""Spectra, small divisors, Omega minima, counting indicators and Bruno sums.

Two kinds of spectra appear: eigenvalues ``lambda`` of a diagonal germ, with
divisors ``lambda^nu - lambda_j``, and eigenvalues ``omega`` of a diagonal
vector field, with divisors ``omega . nu - omega_j``.  Momenta ``nu`` may
have negative entries; powers of the ``lambda_i`` use inverses there.

A divisor whose modulus falls below the resonance tolerance (default 1e-12)
makes division fail loudly instead of amplifying noise.  For rotation
spectra every divisor is evaluated in the stable form
lambda_j * 2i sin(pi x) e^(i pi x), with x = nu.omega - omega_j reduced mod 1,
so its modulus agrees with ``divisor_modulus`` near resonance.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DivisorBelowTolerance, RationalDetected, ResonantSpectrum
from .series import (
    VectorSeries,
    abs_degree,
    graded_indices,
    graded_key,
    iter_indices,
    signed_degree,
    slot_count,
)

DEFAULT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


def frac_distance(x: float) -> float:
    """Distance from x to its nearest integer."""
    return abs(x - round(x))


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GermSpectrum:
    """Pairwise-distinct nonzero eigenvalues of a diagonal germ.

    When every eigenvalue has modulus one a rotation vector may be supplied
    (or is implied by :meth:`from_rotation`); divisors and their moduli are
    then evaluated through the stable forms
    lambda_j * 2i sin(pi x) e^(i pi x) and 2|sin(pi x)|, where
    x = nu.omega - omega_j reduced mod 1.
    """

    lam: tuple
    rotation: tuple | None = None

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

    def key(self):
        return ("germ",) + self.lam

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


@dataclass(frozen=True)
class FieldSpectrum:
    """Eigenvalues of the diagonal linear part of a vector field."""

    omega: tuple

    def __post_init__(self):
        omega = tuple(complex(x) for x in self.omega)
        object.__setattr__(self, "omega", omega)

    @property
    def n(self) -> int:
        return len(self.omega)

    def key(self):
        return ("field",) + self.omega

    def divisor(self, nu, j: int) -> complex:
        return sum(v * w for v, w in zip(nu, self.omega)) - self.omega[j]

    def divisor_modulus(self, nu, j: int) -> float:
        return abs(self.divisor(nu, j))


def is_resonant_germ(spectrum: GermSpectrum, max_degree: int, tol: float = DEFAULT_TOL):
    """First (alpha, j) with 2 <= |alpha| <= max_degree and |lambda^alpha - lambda_j| <= tol.

    A bounded-degree check only; returns None when no witness exists in range.
    """
    if max_degree < 2:
        raise ValueError("resonance scan starts at degree 2")
    for alpha in iter_indices(spectrum.n, max_degree, 2):
        for j in range(spectrum.n):
            if spectrum.divisor_modulus(alpha, j) <= tol:
                return (alpha, j)
    return None


def is_resonant_field(spectrum: FieldSpectrum, max_degree: int, tol: float = DEFAULT_TOL):
    """Field-case resonance witness over indices with at most one entry equal to -1."""
    if max_degree < 2:
        raise ValueError("resonance scan starts at degree 2")
    n = spectrum.n
    witnesses = []
    for alpha in _hat_indices(n, max_degree):
        if not 2 <= abs_degree(alpha) <= max_degree:
            continue
        for j in range(n):
            if spectrum.divisor_modulus(alpha, j) <= tol:
                witnesses.append((alpha, j))
    if witnesses:
        return min(witnesses, key=lambda w: (graded_key(tuple(abs(x) for x in w[0])), w[1]))
    return None


# ---------------------------------------------------------------------------
# the divisor operators
# ---------------------------------------------------------------------------


# per spectrum, (D, divisors, moduli) at the largest D built so far, for the
# _DIVISOR_TABLE_LIMIT most recently used spectra
_DIVISOR_TABLES: OrderedDict = OrderedDict()
_DIVISOR_TABLE_LIMIT = 16


def divisor_table(spectrum, D: int):
    """Divisors and their moduli as two ``(n, slots)`` arrays over the graded-lex slots of degree <= D.

    Row j, slot alpha holds ``spectrum.divisor(alpha, j)``.  The slots of
    degree <= d come first, so the table of truncation d is a prefix of any
    larger one: each spectrum keeps the largest table built so far, for the
    16 most recently used spectra, and a smaller D reads its prefix.
    """
    entry = _DIVISOR_TABLES.pop(spectrum, None)
    if entry is None or entry[0] < D:
        indices = graded_indices(spectrum.n, D)
        table = np.array(
            [[spectrum.divisor(alpha, j) for alpha in indices] for j in range(spectrum.n)],
            dtype=complex,
        )
        entry = (D, table, np.abs(table))
    _DIVISOR_TABLES[spectrum] = entry
    if len(_DIVISOR_TABLES) > _DIVISOR_TABLE_LIMIT:
        _DIVISOR_TABLES.popitem(last=False)
    M = slot_count(spectrum.n, D)
    return entry[1][:, :M], entry[2][:, :M]


def apply_inverse_D(spectrum, g: VectorSeries, tol: float = DEFAULT_TOL,
                    on_small_divisor: str = "raise", clipped: list | None = None) -> VectorSeries:
    """Per-monomial division by the divisors; preserves the valuation.

    Requires valuation(g) >= 2.  A nonzero coefficient whose divisor has
    modulus below ``tol`` raises :class:`DivisorBelowTolerance` for the
    first such (alpha, j) in graded-lex order, instead of emitting a huge
    coefficient.  With ``on_small_divisor="clip"`` those coefficients become
    zero instead, and each (alpha, j, modulus) is appended to ``clipped``.
    """
    if not g.is_zero() and g.valuation() < 2:
        raise ValueError("inverse divisor operator is defined on valuation >= 2")
    out = divide_slots(spectrum, g.to_array(), g.trunc, 0, tol, on_small_divisor, clipped)
    return VectorSeries.from_array(g.n, g.trunc, out)


def divide_slots(spectrum, values, D: int, lo: int, tol: float = DEFAULT_TOL,
                 on_small_divisor: str = "raise", clipped: list | None = None):
    """Divide an ``(n, width)`` array holding slots ``lo : lo + width`` of truncation D.

    The division behind :func:`apply_inverse_D`, with the tolerance rule of
    :func:`small_divisors` and :func:`settle_small_divisors`: a nonzero
    value over a divisor of modulus below ``tol`` raises, or in clip mode
    becomes zero and is recorded in ``clipped``.
    """
    table, _ = divisor_table(spectrum, D)
    table = table[:, lo:lo + values.shape[1]]
    nonzero = values != 0
    small, bad = small_divisors(spectrum, nonzero, D, lo, tol)
    settle_small_divisors(bad, on_small_divisor, clipped)
    return np.divide(values, table, out=np.zeros_like(values), where=nonzero & ~small)


def small_divisors(spectrum, nonzero, D: int, lo: int, tol: float = DEFAULT_TOL):
    """The resonance test of the solvers, on an ``(n, width)`` block of slots ``lo : lo + width``.

    Returns the mask of the ``nonzero`` entries whose divisor modulus is
    below ``tol``, and one (alpha, j, modulus) record per such entry in
    graded-lex order (by slot, then axis).
    """
    _, modulus = divisor_table(spectrum, D)
    modulus = modulus[:, lo:lo + nonzero.shape[1]]
    small = nonzero & (modulus < tol)
    if not small.any():
        return small, []
    indices = graded_indices(spectrum.n, D)
    slots, axes = np.nonzero(small.T)
    return small, [(indices[lo + i], j, float(modulus[j, i]))
                   for i, j in zip(slots.tolist(), axes.tolist())]


def settle_small_divisors(bad, on_small_divisor: str = "raise", clipped: list | None = None):
    """Raise :class:`DivisorBelowTolerance` for the first record of ``bad``, or in clip mode record them all."""
    if bad and on_small_divisor == "raise":
        raise DivisorBelowTolerance(*bad[0])
    if clipped is not None:
        clipped.extend(bad)


def apply_forward_D(spectrum, g: VectorSeries) -> VectorSeries:
    """Per-monomial multiplication by the divisors (the forward operator)."""
    table, _ = divisor_table(spectrum, g.trunc)
    return VectorSeries.from_array(g.n, g.trunc, g.to_array() * table)


# ---------------------------------------------------------------------------
# Omega minima
# ---------------------------------------------------------------------------


def _signed_boxes(n: int, bound: int):
    """All nonzero integer vectors with abs-degree <= bound."""
    rng = range(-bound, bound + 1)
    for nu in product(rng, repeat=n):
        if any(nu) and abs_degree(nu) <= bound:
            yield nu


def omega_tilde(spectrum: GermSpectrum, p: int, mode: str = "realizable") -> float:
    """min over j and momenta with abs-degree < p of |lambda^nu - lambda_j|.

    ``realizable`` (default) restricts to momenta a labeled tree can carry
    (signed degree >= 2), which is the set the inversion formula meets;
    ``full`` scans every nonzero integer vector of abs-degree < p, the
    literal small-divisor function (it vanishes at nu = e_j).
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    if mode not in ("realizable", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return _omega_tilde_impl(spectrum.lam, spectrum.rotation, p, mode)


@lru_cache(maxsize=256)
def _omega_tilde_impl(lam, rotation, p, mode):
    spectrum = GermSpectrum(lam, rotation)
    best = math.inf
    for nu in _signed_boxes(spectrum.n, p - 1):
        if mode == "realizable" and signed_degree(nu) < 2:
            continue
        for j in range(spectrum.n):
            best = min(best, spectrum.divisor_modulus(nu, j))
    return best


@lru_cache(maxsize=256)
def omega_frac(omega: tuple, p: int) -> float:
    """min of the nearest-integer distance of nu.omega over 0 < abs-degree(nu) <= p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    omega = tuple(float(w) for w in omega)
    best = math.inf
    for nu in _half_boxes(len(omega), p):
        best = min(best, frac_distance(sum(v * w for v, w in zip(nu, omega))))
    return best


def _half_boxes(n: int, bound: int):
    """One representative of each +-nu pair (first nonzero entry positive)."""
    for nu in _signed_boxes(n, bound):
        for x in nu:
            if x != 0:
                if x > 0:
                    yield nu
                break


def _hat_indices(n: int, bound: int):
    """Integer vectors with entries >= 0 except at most one equal to -1, abs-degree <= bound."""
    for nu in product(range(-1, bound + 1), repeat=n):
        if sum(1 for x in nu if x < 0) <= 1 and 0 < abs_degree(nu) <= bound:
            yield nu


@lru_cache(maxsize=256)
def omega_hat(omega: tuple, p: int, tol: float = DEFAULT_TOL) -> float:
    """min of |nu.omega| over the restricted index set with abs-degree <= p.

    The index set allows at most one entry equal to -1 (the rest
    non-negative) and skips exact resonances nu.omega = 0.  The bound is
    inclusive so that the separation property below holds for every shift
    of abs-degree <= p.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    omega = tuple(complex(w) for w in omega)
    best = math.inf
    for nu in _hat_indices(len(omega), p):
        v = abs(sum(x * w for x, w in zip(nu, omega)))
        if v > tol:
            best = min(best, v)
    return best


# ---------------------------------------------------------------------------
# counting indicator and Bruno sums
# ---------------------------------------------------------------------------


def phi_counting(nu, k: int, omega, P, variant: str = "germ") -> int:
    """Indicator that nu.omega is small at scale k.

    Germ variant: 1 iff the nearest-integer distance of nu.omega is below
    half of Omega(p_k); field variant: 1 iff |nu.omega| is below half of
    OmegaHat(p_k).  Vanishes whenever 0 < abs-degree(nu) <= p_k.
    """
    nu = tuple(nu)
    if not any(nu):
        raise ValueError("nu must be nonzero")
    omega = tuple(omega)
    if variant == "germ":
        x = frac_distance(sum(v * float(w) for v, w in zip(nu, omega)))
        return 1 if x < 0.5 * omega_frac(omega, P[k]) else 0
    if variant == "field":
        x = abs(sum(v * complex(w) for v, w in zip(nu, omega)))
        return 1 if x < 0.5 * omega_hat(omega, P[k]) else 0
    raise ValueError(f"unknown variant {variant!r}")


def bruno_sum(omega_of_p, P, K: int, tol: float = DEFAULT_TOL):
    """Partial sums S_K = sum_{k<=K} log(1/Omega(p_(k+1))) / p_k.

    ``omega_of_p`` maps an integer p to a positive Omega value; a value at
    or below the tolerance raises :class:`ResonantSpectrum`.
    """
    sums = []
    total = 0.0
    for k in range(K + 1):
        value = omega_of_p(P[k + 1])
        if value <= tol:
            raise ResonantSpectrum(
                f"Omega(p_{k + 1} = {P[k + 1]}) = {value:.3e} at or below tolerance"
            )
        total += math.log(1.0 / value) / P[k]
        sums.append(total)
    return sums


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients a_1, a_2, ... and convergent denominators q_0 = 1, q_1, ..."""

    quotients: tuple
    p: tuple
    q: tuple

    @classmethod
    def from_quotients(cls, quotients):
        quotients = tuple(int(a) for a in quotients)
        if any(a < 1 for a in quotients):
            raise ValueError("partial quotients must be positive")
        ps, qs = [0], [1]
        prev_p, prev_q = 1, 0  # index -1
        cur_p, cur_q = 0, 1  # index 0 (integer part normalized to 0)
        for a in quotients:
            cur_p, prev_p = a * cur_p + prev_p, cur_p
            cur_q, prev_q = a * cur_q + prev_q, cur_q
            ps.append(cur_p)
            qs.append(cur_q)
        return cls(quotients, tuple(ps), tuple(qs))

    def __len__(self):
        return len(self.quotients)

    def convergents(self):
        return list(zip(self.p, self.q))


def continued_fraction(omega, K: int, eps: float = 1e-12) -> ContinuedFraction:
    """K partial quotients of the fractional part of omega via the Gauss map.

    Accepts floats, or rationals such as :class:`fractions.Fraction` with
    exact arithmetic.  When the remainder underflows (is zero for a
    rational), the input is rational to working precision and
    :class:`RationalDetected` is raised carrying the partial expansion.
    """
    if K < 1:
        raise ValueError("need at least one quotient")
    exact = isinstance(omega, numbers.Rational)
    x = omega - math.floor(omega)
    quotients = []
    for _ in range(K):
        if (x == 0) if exact else (abs(x) < eps):
            raise RationalDetected(ContinuedFraction.from_quotients(quotients))
        inv = 1 / x if exact else 1.0 / x
        a = int(inv)
        quotients.append(a)
        x = inv - a
    return ContinuedFraction.from_quotients(quotients)


def bruno_series_1d(cf: ContinuedFraction, K: int):
    """Partial sums of sum_k log(q_(k+1)) / q_k, the one-dimensional Bruno series.

    The final entry is the truncated Bruno-function proxy; it matches the
    modular Bruno function only up to a bounded additive constant, which is
    never asserted.
    """
    if K + 1 >= len(cf.q):
        raise ValueError(
            f"need {K + 2} convergents, have {len(cf.q)}"
        )
    sums = []
    total = 0.0
    for k in range(K + 1):
        total += math.log(cf.q[k + 1]) / cf.q[k]
        sums.append(total)
    return sums


def bruno_proxy(omega: float, K: int = 20) -> float:
    """Truncated 1-D Bruno series of (the fractional part of) omega.

    On rational detection the partial expansion is summed as far as it goes.
    """
    try:
        cf = continued_fraction(omega, K + 2)
    except RationalDetected as exc:
        cf = exc.partial
    terms = min(K, len(cf.q) - 2)
    if terms < 0:
        raise ResonantSpectrum(f"no convergents for omega = {omega}")
    return bruno_series_1d(cf, terms)[-1]
