"""Formal derivatives, the weighted norm, and families of series in auxiliary variables.

A :class:`SeriesFamily` is a power series in n auxiliary variables whose
coefficients are vector series: the expansion G(v) = sum_beta g_beta v^beta
of a shifted map, which :func:`shift_expand` builds from f.  Of the three
routes of :func:`linearize.solve` only the fixed point builds one, so no
recursive or tree solve runs this module.
"""

from __future__ import annotations

import numpy as np

from .errors import CompositionError, TruncationMismatch
from .indices import (
    dominates,
    graded_key,
    index_add,
    index_sub,
    iter_indices,
    multi_binom,
    unit_index,
)
from .series import PowerTable, ScalarSeries, VectorSeries, _basis

def formal_derivative(f, beta):
    """Binomial-weighted derivative: sum over alpha >= beta of binom(alpha,beta) f_alpha z^(alpha-beta).

    Takes a scalar or a vector series and returns the same kind; only the
    slots holding a nonzero coefficient are visited.
    """
    beta = tuple(beta)
    basis = _basis(f.n, f.trunc)
    src, dst, binom = [], [], []
    for s in np.flatnonzero(f._used()).tolist():
        alpha = basis.indices[s]
        if dominates(alpha, beta):
            src.append(s)
            dst.append(basis.slot[index_sub(alpha, beta)])
            binom.append(multi_binom(alpha, beta))
    out = np.zeros_like(f._v)
    out[..., dst] += f._v[..., src] * np.array(binom, dtype=float)
    return f._wrap(out)


def weighted_norm(f, r: float) -> float:
    """sup over stored indices of (max component modulus) * r^degree.

    This is the Archimedean growth proxy used by the diagnostics; on a
    truncation it is a lower bound for the corresponding supremum over all
    indices.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    comps = f.components if isinstance(f, VectorSeries) else (f,)
    best = 0.0
    for comp in comps:
        for a, c in comp.items():
            best = max(best, abs(c) * r ** sum(a))
    return best


class SeriesFamily:
    """A power series in n auxiliary variables whose coefficients are vector series.

    This is the shape taken by the expansion G(v) = sum_beta g_beta v^beta of
    a shifted map, and the natural domain for the ultrametric weighted norm
    ``sup_beta ||g_beta|| r^|beta|`` (coefficient norms are z-adic).
    """

    __slots__ = ("n", "inner_trunc", "outer_trunc", "coeffs")

    def __init__(self, n, inner_trunc, outer_trunc, coeffs):
        self.n = n
        self.inner_trunc = inner_trunc
        self.outer_trunc = outer_trunc
        clean = {}
        for beta, g in coeffs.items():
            beta = tuple(beta)
            if sum(beta) > outer_trunc or g.is_zero():
                continue
            if g.n != n or g.trunc != inner_trunc:
                raise TruncationMismatch("family coefficient disagrees on n or truncation")
            clean[beta] = g
        self.coeffs = clean

    def coeff(self, beta) -> VectorSeries:
        return self.coeffs.get(tuple(beta), VectorSeries.zero(self.n, self.inner_trunc))

    def items(self):
        return [(b, self.coeffs[b]) for b in sorted(self.coeffs, key=graded_key)]

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return SeriesFamily(
            self.n, self.inner_trunc, self.outer_trunc,
            {b: self.coeff(b) + other.coeff(b) for b in keys},
        )

    def __sub__(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return SeriesFamily(
            self.n, self.inner_trunc, self.outer_trunc,
            {b: self.coeff(b) - other.coeff(b) for b in keys},
        )

    def scale(self, c):
        return SeriesFamily(
            self.n, self.inner_trunc, self.outer_trunc,
            {b: g.scale(c) for b, g in self.coeffs.items()},
        )

    def weighted_norm(self, r: float) -> float:
        """Ultrametric weighted norm: sup_beta 2^(-v(g_beta)) r^|beta|."""
        if r <= 0:
            raise ValueError("radius must be positive")
        return max((g.znorm() * r ** sum(b) for b, g in self.coeffs.items()), default=0.0)

    def delta(self, alpha) -> "SeriesFamily":
        """Formal derivative in the auxiliary variables."""
        alpha = tuple(alpha)
        out = {}
        for beta, g in self.coeffs.items():
            if dominates(beta, alpha):
                out[index_sub(beta, alpha)] = g.scale(multi_binom(beta, alpha))
        return SeriesFamily(self.n, self.inner_trunc, self.outer_trunc, out)

    def evaluate(self, x: VectorSeries) -> VectorSeries:
        """sum_beta g_beta * x^beta for an argument with valuation >= 1."""
        if x.n != self.n or x.trunc != self.inner_trunc:
            raise TruncationMismatch("argument disagrees with family on n or truncation")
        if not x.is_zero() and x.valuation() < 1:
            raise CompositionError("family evaluation needs an argument of valuation >= 1")
        items = self.items()
        powers = PowerTable(x.to_array(), [beta for beta, _ in items], x.trunc).fill_all().power
        acc = VectorSeries.zero(self.n, self.inner_trunc)
        for beta, g in items:
            if powers[beta].any():
                acc = acc + g.mul_scalar_series(ScalarSeries.from_vector(self.n, x.trunc, powers[beta]))
        return acc

    def compose(self, inner: "SeriesFamily") -> "SeriesFamily":
        """Substitute the auxiliary variables by the components of another family."""
        if inner.n != self.n or inner.inner_trunc != self.inner_trunc:
            raise TruncationMismatch("family composition needs matching n and inner truncation")
        n, Dz, Dx = self.n, self.inner_trunc, self.outer_trunc

        def fam_mul(a, b):
            out = {}
            for ka, va in a.items():
                da = sum(ka)
                for kb, vb in b.items():
                    if da + sum(kb) > Dx:
                        continue
                    k = index_add(ka, kb)
                    prod = va.multiply(vb)
                    if prod.is_zero():
                        continue
                    out[k] = out[k] + prod if k in out else prod
            return out

        comp = []
        for i in range(n):
            comp.append({
                b: vs.component(i)
                for b, vs in inner.coeffs.items()
                if not vs.component(i).is_zero()
            })
        one = {(0,) * n: ScalarSeries.one(n, Dz)}
        pow_cache = {(0,) * n: one}

        def fam_power(beta):
            p = pow_cache.get(beta)
            if p is not None:
                return p
            i = next(k for k, b in enumerate(beta) if b > 0)
            p = fam_mul(fam_power(index_sub(beta, unit_index(n, i))), comp[i])
            pow_cache[beta] = p
            return p

        acc = {}
        for beta, g in self.items():
            for k, s in fam_power(beta).items():
                contrib = g.mul_scalar_series(s)
                if contrib.is_zero():
                    continue
                acc[k] = acc[k] + contrib if k in acc else contrib
        return SeriesFamily(n, Dz, Dx, acc)


def shift_expand(f: VectorSeries) -> SeriesFamily:
    """Expansion family of v -> f(z + v): g_beta = sum_alpha binom(alpha+beta, beta) f_(alpha+beta) z^alpha.

    Requires valuation(f) >= 2 so the family inherits the norms
    ||g_0|| = ||f||, ||g_beta|| <= 2||f|| for |beta| = 1 (with equality for
    some axis) and the weighted bound ||G||_(1/2) <= ||f||.
    """
    if not f.is_zero() and f.valuation() < 2:
        raise ValueError("shift expansion needs valuation >= 2")
    out = {}
    # no index above the top degree of f has a nonzero derivative
    top = max(f.per_degree_max(), default=0)
    for beta in iter_indices(f.n, top):
        g = formal_derivative(f, beta)
        if not g.is_zero():
            out[beta] = g
    return SeriesFamily(f.n, f.trunc, f.trunc, out)
