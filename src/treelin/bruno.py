"""Omega minima, the counting indicator, Bruno sums and continued fractions.

The arithmetic of the Bruno condition: the small-divisor minima
:func:`omega_tilde`, :func:`omega_frac` and :func:`omega_hat`, the counting
indicator :func:`phi_counting` of the scales of lines, the partial sums
:func:`bruno_sum` and the one-dimensional Bruno series of a continued
fraction.  No solver divides by these; only the growth diagnostics, the
scales of lines and the ``bruno`` and ``omega`` commands run this module.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from itertools import product

from . import divisors  # deferred: only omega_hat and bruno_sum read it
from .errors import RationalDetected, ResonantSpectrum
from .indices import abs_degree, signed_degree
from .records import Record


def frac_distance(x: float) -> float:
    """Distance from x to its nearest integer."""
    return abs(x - round(x))


# ---------------------------------------------------------------------------
# Omega minima
# ---------------------------------------------------------------------------


def _signed_boxes(n: int, bound: int):
    """All nonzero integer vectors with abs-degree <= bound."""
    rng = range(-bound, bound + 1)
    for nu in product(rng, repeat=n):
        if any(nu) and abs_degree(nu) <= bound:
            yield nu


@lru_cache(maxsize=256)
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
def omega_hat(omega: tuple, p: int) -> float:
    """min of |nu.omega| over the restricted index set with abs-degree <= p.

    The index set allows at most one entry equal to -1 (the rest
    non-negative) and skips resonances, |nu.omega| <= ``divisors.RESONANCE_TOL``.
    The bound is inclusive so that the separation property below holds for
    every shift of abs-degree <= p.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    omega = tuple(complex(w) for w in omega)
    best = math.inf
    for nu in _hat_indices(len(omega), p):
        v = abs(sum(x * w for x, w in zip(nu, omega)))
        if v > divisors.RESONANCE_TOL:
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


def bruno_sum(omega_of_p, P, K: int):
    """Partial sums S_K = sum_{k<=K} log(1/Omega(p_(k+1))) / p_k.

    ``omega_of_p`` maps an integer p to a positive Omega value; a value at
    or below ``divisors.RESONANCE_TOL`` raises :class:`ResonantSpectrum`.
    """
    sums = []
    total = 0.0
    for k in range(K + 1):
        value = omega_of_p(P[k + 1])
        if value <= divisors.RESONANCE_TOL:
            raise ResonantSpectrum(
                f"Omega(p_{k + 1} = {P[k + 1]}) = {value:.3e} at or below tolerance"
            )
        total += math.log(1.0 / value) / P[k]
        sums.append(total)
    return sums


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


class ContinuedFraction(Record):
    """Partial quotients a_1, a_2, ... and convergent denominators q_0 = 1, q_1, ..."""

    __slots__ = ("quotients", "q")

    @classmethod
    def from_quotients(cls, quotients):
        quotients = tuple(int(a) for a in quotients)
        if any(a < 1 for a in quotients):
            raise ValueError("partial quotients must be positive")
        qs = [1]
        prev_q, cur_q = 0, 1  # indices -1 and 0
        for a in quotients:
            cur_q, prev_q = a * cur_q + prev_q, cur_q
            qs.append(cur_q)
        return cls(quotients, tuple(qs))


# A float Gauss-map remainder below this ends continued_fraction: the input is
# rational to working precision.
RATIONAL_TOL = 1e-12


def continued_fraction(omega, K: int) -> ContinuedFraction:
    """K partial quotients of the fractional part of omega via the Gauss map.

    Accepts floats, or rationals such as :class:`fractions.Fraction` with
    exact arithmetic.  When the remainder falls below ``RATIONAL_TOL`` (is
    zero for a rational), the input is rational to working precision and
    :class:`RationalDetected` is raised carrying the partial expansion.
    """
    if K < 1:
        raise ValueError("need at least one quotient")
    exact = isinstance(omega, numbers.Rational)
    x = omega - math.floor(omega)
    quotients = []
    for _ in range(K):
        if (x == 0) if exact else (abs(x) < RATIONAL_TOL):
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
