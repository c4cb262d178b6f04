"""The exact h that the tests check every route against; pytest does not collect this module.

One dict recursion, x_d = divide(alpha, j, [f(z + x)]_{alpha, j}), over any
numbers with ``+``, ``*`` and truthiness (``divide`` brings its own ``/``):
:class:`Gaussian` for dyadic tables and field spectra, ``Fraction`` for
moduli, ``int`` for reach counts and mpmath's ``mpc`` for germ spectra.  Of
treelin it reads only the slot order, ``graded_indices``, so it shares no
code with ``series``, ``divisors`` or ``treesum``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from treelin.series import graded_indices


class Gaussian:
    """An exact complex rational re + i im; ``Gaussian.of`` takes a Python number, floats exactly."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z):
        return z if isinstance(z, Gaussian) else cls(z.real, z.imag)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        return self * Gaussian(other.re, -other.im) * (1 / (other.re ** 2 + other.im ** 2))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _accumulate(out: dict, key, value):
    out[key] = out[key] + value if key in out else value


def recursion(n: int, D: int, f: dict, divide) -> dict:
    """x through degree D from x_d = divide(alpha, j, [f(z + x)]_{alpha, j}), as {(alpha, j): value}.

    ``f`` maps exponents of degree >= 2 to n coefficients.  Degree d of a power
    (z + x)^alpha is that of its prefix times z_k + x_k, k its last nonzero
    axis, so it reads x below degree d only.  ``divide`` is called once for
    each slot that f reaches, and a falsy value it returns is not kept.
    """
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    power = {e: {1: {e: 1}} for e in unit}  # power[alpha][m]: degree m of (z + x)^alpha
    chain = {}  # alpha -> (prefix, unit of its last nonzero axis)
    for alpha in f:
        while alpha not in power:
            k = max(i for i, a in enumerate(alpha) if a)
            chain[alpha] = (tuple(a - (i == k) for i, a in enumerate(alpha)), unit[k])
            power[alpha] = {}
            alpha = chain[alpha][0]
    x = {}
    for d in range(2, D + 1):
        for alpha, (up, e) in chain.items():
            power[alpha][d] = out = {}
            for m in range(sum(up), d):
                for mu, u in power[up].get(m, {}).items():
                    for nu, v in power[e].get(d - m, {}).items():
                        _accumulate(out, tuple(a + b for a, b in zip(mu, nu)), u * v)
        rhs = {}
        for alpha, c in f.items():
            for beta, u in power[alpha][d].items():
                for j, cj in enumerate(c):
                    if cj:
                        _accumulate(rhs, (beta, j), cj * u)
        for e in unit:
            power[e][d] = {}
        for (beta, j), value in rhs.items():
            value = divide(beta, j, value)
            if value:
                x[(beta, j)] = power[unit[j]][d][beta] = value
    return x


def conjugacy(problem, D: int) -> dict:
    """The h of a germ or field problem through degree D, from the problem's own floats taken exactly.

    A field's divisors nu.omega - omega_j are rational, and so is its h, in
    :class:`Gaussian`.  A germ's lambda^nu - lambda_j, lambda_j =
    exp(2 pi i omega_j) if it is given by its rotation, are taken in 60-digit
    mpmath: over float eigenvalues, Gaussian rationals reach denominators of
    3.6e4 bits by n=2 D=12.  No divisor comes from a divisor table.
    """
    spectrum, n = problem.spectrum, problem.f.n
    if hasattr(spectrum, "omega"):
        omega = [Gaussian.of(w) for w in spectrum.omega]
        f = {alpha: [Gaussian.of(c) for c in vec] for alpha, vec in problem.f.coeff_items()}
        return recursion(n, D, f, lambda beta, j, value: value / sum(
            (b - (i == j)) * w for i, (b, w) in enumerate(zip(beta, omega))))
    import mpmath

    with mpmath.workdps(60):
        lam = ([mpmath.mpc(x) for x in spectrum.lam] if spectrum.rotation is None
               else [mpmath.expjpi(2 * mpmath.mpf(w)) for w in spectrum.rotation])
        f = {alpha: [mpmath.mpc(c) for c in vec] for alpha, vec in problem.f.coeff_items()}
        return recursion(n, D, f, lambda beta, j, value: value / (
            math.prod(x ** b for x, b in zip(lam, beta)) - lam[j]))


def as_array(n: int, D: int, values: dict) -> np.ndarray:
    """A {(alpha, j): number} dict as a route's (n, slots) complex array, in slot order."""
    return np.array([[complex(values.get((alpha, j), 0)) for alpha in graded_indices(n, D)]
                     for j in range(n)], dtype=complex)
