"""Truncated multivariate formal power series over complex coefficients.

Conventions used throughout the package:

* An exponent index is a tuple of ``n`` non-negative integers; a momentum is
  a tuple of ``n`` signed integers.  ``degree`` sums entries (the signed
  degree for momenta), ``abs_degree`` sums absolute values.
* Every series carries a truncation degree ``trunc`` fixed at construction.
  Indices of total degree above ``trunc`` are dropped silently; all
  operations are exact on the retained range, i.e. the stored data is
  treated as a polynomial.  Mixing different ``n`` or ``trunc`` raises
  :class:`~treelin.errors.TruncationMismatch`.
* Storage is dense: a series in ``n`` variables truncated at ``D`` is one
  complex vector with a slot for every index of degree <= D
  (``C(n + D, n)`` slots), in graded lexicographic order, the order of
  :func:`iter_indices`.  Degrees <= d come first, so the storage of the
  truncation to d is a prefix.  Queries (``items``, ``support``, ``len``,
  ``valuation``) report nonzero slots only.
* The Cauchy product has a normative summation order that depends on
  neither the values nor the support of its operands.  For n = 1 it is the
  order of ``numpy.convolve``; for n >= 2 each output slot sums the
  products a_i * b_j over its slot pairs (i, j) in ascending i, one pass of
  ``numpy.bincount`` over a precomputed pair table.  Zero terms are never
  skipped, so the degree <= d part of a product is bitwise the same
  whatever the operands hold above degree d.
* The z-adic valuation of a series is the least total degree of a stored
  nonzero coefficient (``math.inf`` for the zero series); the matching
  ultrametric norm is ``2**-valuation``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CompositionError, TruncationMismatch

# ---------------------------------------------------------------------------
# index helpers
# ---------------------------------------------------------------------------

def degree(alpha) -> int:
    """Total (signed) degree: sum of the entries."""
    return sum(alpha)


def abs_degree(nu) -> int:
    """Sum of absolute values of the entries."""
    return sum(abs(x) for x in nu)


signed_degree = degree  # explicit name for momenta


def dominates(alpha, beta) -> bool:
    """Component-wise ``alpha >= beta``."""
    return all(a >= b for a, b in zip(alpha, beta))


def index_add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def index_sub(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def unit_index(n: int, i: int):
    """Standard basis index e_i (0-based axis)."""
    return tuple(1 if k == i else 0 for k in range(n))


def graded_key(alpha):
    """Sort key for graded lexicographic order."""
    return (sum(alpha), alpha)


def multi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def multi_binom(alpha, beta) -> int:
    """Product of per-component binomials; 0 unless alpha >= beta."""
    if not dominates(alpha, beta):
        return 0
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def iter_indices(n: int, max_degree: int, min_degree: int = 0):
    """All indices in N^n with min_degree <= total degree <= max_degree, graded-lex."""
    for d in range(min_degree, max_degree + 1):
        yield from _indices_of_degree(n, d)


def _indices_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _indices_of_degree(n - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the graded-lex basis and the product tables
# ---------------------------------------------------------------------------

def slot_count(n: int, D: int) -> int:
    """Number of indices of degree <= D in n variables: C(n + D, n)."""
    return math.comb(n + D, n)


class _Basis:
    """The indices of degree <= D in graded-lex order, with their slots."""

    def __init__(self, n: int, D: int):
        self.D = D
        self.indices = list(iter_indices(n, D))
        self.slot = {a: i for i, a in enumerate(self.indices)}
        self.degrees = np.array([sum(a) for a in self.indices], dtype=np.intp)


class _PairTable:
    """Slot pairs (i, j) with deg i + deg j <= D, sorted by the slot of i + j.

    Within one output slot the pairs are in ascending i.  Because graded-lex
    order puts degrees <= d first, the table of a truncation d <= D is the
    prefix ``[:cut[d]]`` of this one.
    """

    def __init__(self, n: int, D: int):
        self.D = D
        exps = np.array(_basis(n, D).indices[: slot_count(n, D)], dtype=np.intp)
        upto = np.array([slot_count(n, d) for d in range(D + 1)], dtype=np.intp)
        # slot i pairs with every slot of degree <= D - deg(i): a prefix
        counts = upto[D - exps.sum(axis=1)]
        left = np.repeat(np.arange(len(exps), dtype=np.intp), counts)
        right = np.arange(len(left), dtype=np.intp)
        right -= np.repeat(np.cumsum(counts) - counts, counts)
        # mixed-radix keys add without carries, since every entry is <= D
        key = exps @ (D + 1) ** np.arange(n - 1, -1, -1, dtype=np.intp)
        by_key = np.argsort(key)
        out = key[left]
        out += key[right]
        out = by_key[np.searchsorted(key[by_key], out)]
        order = np.argsort(out, kind="stable")
        # drop each unsorted array once its sorted copy exists, to keep the
        # build's peak memory at a few table-sized arrays
        self.left = left[order]
        del left
        self.right = right[order]
        del right
        out = out[order]
        del order
        self.cut = np.searchsorted(out, upto)
        # output index of each real and imaginary part, interleaved
        self.out2 = np.repeat(2 * out, 2)
        self.out2[1::2] += 1

    def pairs(self, d: int):
        """(left, right, interleaved output) arrays of the truncation-d table."""
        c = self.cut[d]
        return self.left[:c], self.right[:c], self.out2[: 2 * c]


# Each cache holds, per number of variables, the entry for the largest
# truncation built so far; it serves every smaller truncation as a prefix.
_CACHE_DIMENSIONS = 8
_BASES: dict = {}
_PAIR_TABLES: dict = {}


def _cached(cache: dict, build, n: int, D: int):
    entry = cache.pop(n, None)
    if entry is None or entry.D < D:
        entry = build(n, D)
    cache[n] = entry
    if len(cache) > _CACHE_DIMENSIONS:
        del cache[next(iter(cache))]
    return entry


def _basis(n: int, D: int) -> _Basis:
    return _cached(_BASES, _Basis, n, D)


def _pair_table(n: int, D: int) -> _PairTable:
    return _cached(_PAIR_TABLES, _PairTable, n, D)


def graded_indices(n: int, D: int) -> list:
    """The indices of degree <= D in slot order (graded lexicographic)."""
    return _basis(n, D).indices[: slot_count(n, D)]


def reserve(n: int, D: int) -> None:
    """Build the basis and product table for truncation D now.

    Every truncation d <= D is then served by a prefix of them; a solver
    that works through d = 2..D calls this once with its target degree.
    """
    _basis(n, D)
    if n > 1:
        _pair_table(n, D)


def _slot(basis: _Basis, alpha, n: int, trunc: int):
    """Slot of a validated index, or None above the truncation."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"bad index {alpha} for n={n}")
    return basis.slot[alpha] if sum(alpha) <= trunc else None


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class ScalarSeries:
    """A single truncated power series in ``n`` variables.

    Coefficients live in a dense complex vector over the graded-lex slots
    of degree <= ``trunc``; indices above the truncation degree are dropped
    at construction.  The vector is never modified after construction.
    """

    __slots__ = ("n", "trunc", "_v")

    def __init__(self, n: int, trunc: int, coeffs=None):
        if n < 1:
            raise ValueError("need at least one variable")
        if trunc < 0:
            raise ValueError("truncation degree must be non-negative")
        self.n = n
        self.trunc = trunc
        self._v = np.zeros(slot_count(n, trunc), dtype=complex)
        if coeffs:
            basis = _basis(n, trunc)
            for alpha, c in coeffs.items():
                i = _slot(basis, alpha, n, trunc)
                c = complex(c)
                if i is not None:
                    self._v[i] += c

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n, trunc):
        return cls(n, trunc)

    @classmethod
    def monomial(cls, n, trunc, alpha, coef=1.0):
        return cls(n, trunc, {tuple(alpha): coef})

    @classmethod
    def one(cls, n, trunc):
        return cls.monomial(n, trunc, (0,) * n, 1.0)

    @classmethod
    def from_vector(cls, n: int, trunc: int, vector) -> "ScalarSeries":
        """Wrap a complex vector of ``slot_count(n, trunc)`` graded-lex slots."""
        s = cls.__new__(cls)
        s.n = n
        s.trunc = trunc
        s._v = vector
        return s

    # -- basic queries -------------------------------------------------------
    @property
    def vector(self):
        """The dense coefficient vector (read only by convention)."""
        return self._v

    def get(self, alpha) -> complex:
        i = _basis(self.n, self.trunc).slot.get(tuple(alpha))
        if i is None or i >= len(self._v):
            return 0j
        return complex(self._v[i])

    def items(self):
        """Nonzero coefficients in graded lexicographic order."""
        indices = _basis(self.n, self.trunc).indices
        nz = np.flatnonzero(self._v)
        return list(zip([indices[i] for i in nz.tolist()], self._v[nz].tolist()))

    @property
    def support(self):
        indices = _basis(self.n, self.trunc).indices
        return frozenset(indices[i] for i in np.flatnonzero(self._v).tolist())

    def __len__(self):
        return int(np.count_nonzero(self._v))

    def is_zero(self) -> bool:
        return not self._v.any()

    def valuation(self):
        nz = np.flatnonzero(self._v)
        if not len(nz):
            return math.inf
        return int(_basis(self.n, self.trunc).degrees[nz[0]])

    def znorm(self) -> float:
        v = self.valuation()
        return 0.0 if v is math.inf else 2.0 ** (-v)

    def max_abs(self) -> float:
        return float(np.abs(self._v).max())

    # -- arithmetic -----------------------------------------------------------
    def _check(self, other):
        if self.n != other.n or self.trunc != other.trunc:
            raise TruncationMismatch(
                f"incompatible series: n={self.n},D={self.trunc} vs "
                f"n={other.n},D={other.trunc}"
            )

    def _wrap(self, vector) -> "ScalarSeries":
        return ScalarSeries.from_vector(self.n, self.trunc, vector)

    def __add__(self, other):
        self._check(other)
        return self._wrap(self._v + other._v)

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self._v - other._v)

    def __neg__(self):
        return self._wrap(-self._v)

    def scale(self, c):
        return self._wrap(self._v * complex(c))

    def __mul__(self, other):
        if isinstance(other, ScalarSeries):
            return self.multiply(other)
        return self.scale(other)

    __rmul__ = __mul__

    def multiply(self, other: "ScalarSeries") -> "ScalarSeries":
        """Cauchy product truncated at the shared degree, in the normative order."""
        self._check(other)
        a, b = self._v, other._v
        if self.n == 1:
            return self._wrap(np.convolve(a, b)[: len(a)])
        left, right, out2 = _pair_table(self.n, self.trunc).pairs(self.trunc)
        terms = a[left]
        terms *= b[right]
        acc = np.bincount(out2, weights=terms.view(np.float64), minlength=2 * len(a))
        return self._wrap(acc.view(np.complex128))

    def truncate(self, new_trunc: int) -> "ScalarSeries":
        if new_trunc == self.trunc:
            return self
        if new_trunc < 0:
            raise ValueError("truncation degree must be non-negative")
        size = slot_count(self.n, new_trunc)
        if size <= len(self._v):
            vector = self._v[:size]
        else:
            vector = np.zeros(size, dtype=complex)
            vector[: len(self._v)] = self._v
        return ScalarSeries.from_vector(self.n, new_trunc, vector)

    # -- comparison ------------------------------------------------------------
    def __eq__(self, other):
        return (
            isinstance(other, ScalarSeries)
            and self.n == other.n
            and self.trunc == other.trunc
            and bool(np.array_equal(self._v, other._v))
        )

    def __hash__(self):
        return hash((self.n, self.trunc, tuple(self.items())))

    def approx_equal(self, other, rel=1e-9, abs_tol=1e-12) -> bool:
        self._check(other)
        scale = max(self.max_abs(), other.max_abs(), 1.0)
        return float(np.abs(self._v - other._v).max()) <= max(abs_tol, rel * scale)

    def __repr__(self):
        terms = ", ".join(f"{a}:{c:.4g}" for a, c in self.items()[:6])
        more = "..." if len(self) > 6 else ""
        return f"ScalarSeries(n={self.n}, D={self.trunc}, {{{terms}{more}}})"


# ---------------------------------------------------------------------------
# vector series
# ---------------------------------------------------------------------------

class VectorSeries:
    """An n-component truncated series in n variables; the space germs live in."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("need at least one component")
        n, D = components[0].n, components[0].trunc
        if len(components) != n:
            raise ValueError(f"expected {n} components, got {len(components)}")
        for c in components:
            if c.n != n or c.trunc != D:
                raise TruncationMismatch("components disagree on n or truncation")
        self.components = components

    # -- constructors -----------------------------------------------------------
    @classmethod
    def zero(cls, n, trunc):
        return cls([ScalarSeries.zero(n, trunc)] * n)

    @classmethod
    def identity(cls, n, trunc):
        return cls([
            ScalarSeries.monomial(n, trunc, unit_index(n, i)) for i in range(n)
        ])

    @classmethod
    def monomial(cls, n, trunc, alpha, vec):
        return cls([ScalarSeries.monomial(n, trunc, alpha, v) for v in vec])

    @classmethod
    def from_coeffs(cls, n, trunc, coeffs):
        """Build from ``{index: (c_1..c_n)}``."""
        array = np.zeros((n, slot_count(n, trunc)), dtype=complex)
        basis = _basis(n, trunc)
        for alpha, vec in coeffs.items():
            i = _slot(basis, alpha, n, trunc)
            if i is not None:
                for j, v in enumerate(vec):
                    array[j, i] = v
        return cls.from_array(n, trunc, array)

    @classmethod
    def from_array(cls, n: int, trunc: int, array) -> "VectorSeries":
        """Wrap an ``(n, slot_count(n, trunc))`` complex array, one row per component."""
        return cls([ScalarSeries.from_vector(n, trunc, row) for row in array])

    # -- queries ---------------------------------------------------------------
    @property
    def n(self):
        return self.components[0].n

    @property
    def trunc(self):
        return self.components[0].trunc

    def component(self, j) -> ScalarSeries:
        return self.components[j]

    def coefficient(self, alpha):
        return tuple(c.get(alpha) for c in self.components)

    def to_array(self):
        """The ``(n, slots)`` coefficient array, one row per component."""
        return np.stack([c.vector for c in self.components])

    def support(self):
        s = set()
        for c in self.components:
            s |= c.support
        return frozenset(s)

    def coeff_items(self):
        """(index, coefficient vector) pairs in graded lexicographic order."""
        array = self.to_array()
        nz = np.flatnonzero(array.any(axis=0))
        indices = _basis(self.n, self.trunc).indices
        columns = array[:, nz].T.tolist()
        return [(indices[i], tuple(col)) for i, col in zip(nz.tolist(), columns)]

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def valuation(self):
        return min(c.valuation() for c in self.components)

    def znorm(self) -> float:
        v = self.valuation()
        return 0.0 if v is math.inf else 2.0 ** (-v)

    def max_abs(self) -> float:
        return max(c.max_abs() for c in self.components)

    def per_degree_max(self):
        """degree -> max coefficient modulus over all components, sorted by degree."""
        mags = np.abs(self.to_array()).max(axis=0)
        starts = [slot_count(self.n, d - 1) if d else 0 for d in range(self.trunc + 1)]
        top = np.maximum.reduceat(mags, starts)
        return {d: float(m) for d, m in enumerate(top.tolist()) if m > 0}

    def homogeneous(self, d: int) -> "VectorSeries":
        """The degree-d part, at the same truncation."""
        lo = slot_count(self.n, d - 1) if d > 0 else 0
        hi = slot_count(self.n, d) if d <= self.trunc else lo
        array = np.zeros((self.n, slot_count(self.n, self.trunc)), dtype=complex)
        array[:, lo:hi] = self.to_array()[:, lo:hi]
        return VectorSeries.from_array(self.n, self.trunc, array)

    # -- arithmetic --------------------------------------------------------------
    def __add__(self, other):
        return VectorSeries([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return VectorSeries([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorSeries([-c for c in self.components])

    def scale(self, c):
        return VectorSeries([comp.scale(c) for comp in self.components])

    def mul_scalar_series(self, s: ScalarSeries) -> "VectorSeries":
        return VectorSeries([comp.multiply(s) for comp in self.components])

    def truncate(self, new_trunc):
        return VectorSeries([c.truncate(new_trunc) for c in self.components])

    def approx_equal(self, other, rel=1e-9, abs_tol=1e-12) -> bool:
        return all(
            a.approx_equal(b, rel, abs_tol)
            for a, b in zip(self.components, other.components)
        )

    def __eq__(self, other):
        return isinstance(other, VectorSeries) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"VectorSeries(n={self.n}, D={self.trunc}, v={self.valuation()})"

    # -- composition ---------------------------------------------------------------
    def compose(self, inner: "VectorSeries") -> "VectorSeries":
        """F(G): substitute the components of ``inner`` for the variables.

        Requires every component of ``inner`` to have valuation >= 1, which
        makes the truncated composition independent of dropped tails.
        """
        if self.n != inner.n or self.trunc != inner.trunc:
            raise TruncationMismatch("composition needs matching n and truncation")
        for j, comp in enumerate(inner.components):
            if not comp.is_zero() and comp.valuation() < 1:
                raise CompositionError(
                    f"inner component {j} has valuation 0; composition undefined"
                )
        n, D = self.n, self.trunc
        inner_val = inner.valuation()
        # valuation(inner) >= 1 makes deg(power) >= |alpha|: skip vanishing ones
        terms = [(alpha, vec) for alpha, vec in self.coeff_items()
                 if sum(alpha) == 0 or inner_val * sum(alpha) <= D]
        acc = np.zeros((n, slot_count(n, D)), dtype=complex)
        powers = _powers(inner.components, [alpha for alpha, _ in terms])
        for (_, vec), p in zip(terms, powers):
            acc += np.multiply.outer(vec, p.vector)
        return VectorSeries.from_array(n, D, acc)

    def compose_diagonal(self, lam) -> "VectorSeries":
        """F(diag(lam) z): the coefficient of z^alpha times lam^alpha, slot by slot.

        The same series as :meth:`compose` with the inner series
        ``(lam_1 z_1, ..., lam_n z_n)``, without its products.
        """
        exps = np.array(graded_indices(self.n, self.trunc), dtype=np.intp)
        lam_alpha = np.prod(np.array(lam, dtype=complex) ** exps, axis=1)
        return VectorSeries.from_array(self.n, self.trunc, self.to_array() * lam_alpha)


def _powers(variables, alphas):
    """The monomials prod_i variables[i] ** alpha_i for graded-lex sorted ``alphas``, in order.

    Each power is its parent's, alpha - e_i for the first nonzero axis i,
    times variables[i].  Powers are built one degree at a time and only the
    previous degree is kept, so a long support costs two levels of memory.
    """
    n, D = variables[0].n, variables[0].trunc
    zero = (0,) * n
    parent = {}
    for alpha in alphas:
        while alpha != zero and alpha not in parent:
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent[alpha] = (index_sub(alpha, unit_index(n, i)), i)
            alpha = parent[alpha][0]
    by_degree: dict = {}
    for alpha in parent:
        by_degree.setdefault(sum(alpha), []).append(alpha)
    level = {zero: ScalarSeries.one(n, D)}
    k = 0
    for d in range(max(by_degree, default=0) + 1):
        if d:
            level = {
                alpha: level[parent[alpha][0]].multiply(variables[parent[alpha][1]])
                for alpha in by_degree[d]
            }
        while k < len(alphas) and sum(alphas[k]) == d:
            yield level[alphas[k]]
            k += 1


# ---------------------------------------------------------------------------
# formal derivatives and the shift family
# ---------------------------------------------------------------------------

def formal_derivative(f: ScalarSeries, beta) -> ScalarSeries:
    """Binomial-weighted derivative: sum over alpha >= beta of binom(alpha,beta) f_alpha z^(alpha-beta)."""
    beta = tuple(beta)
    out = {}
    for alpha, c in f.items():
        if dominates(alpha, beta):
            out[index_sub(alpha, beta)] = c * multi_binom(alpha, beta)
    return ScalarSeries(f.n, f.trunc, out)


def vector_formal_derivative(f: VectorSeries, beta) -> VectorSeries:
    return VectorSeries([formal_derivative(c, beta) for c in f.components])


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
        acc = VectorSeries.zero(self.n, self.inner_trunc)
        for (_, g), p in zip(items, _powers(x.components, [beta for beta, _ in items])):
            if not p.is_zero():
                acc = acc + g.mul_scalar_series(p)
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
                b: vs.components[i]
                for b, vs in inner.coeffs.items()
                if not vs.components[i].is_zero()
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
        g = vector_formal_derivative(f, beta)
        if not g.is_zero():
            out[beta] = g
    return SeriesFamily(f.n, f.trunc, f.trunc, out)
