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
  truncation to d is a prefix.  A vector series is one ``(n, slots)``
  array whose rows are its components.  Queries (``items``, ``support``,
  ``len``, ``valuation``) report nonzero slots only.
* The Cauchy product has a normative summation order that depends on
  neither the values nor the support of its operands.  For n = 1 it is the
  order of ``numpy.convolve``; for n >= 2 each output slot sums the
  products a_i * b_j over its slot pairs (i, j) in ascending i, with
  ``numpy.bincount`` over a precomputed pair table.  The table is built
  and read in runs of whole output-degree blocks, each of at most
  ``_BLOCK`` pairs unless one block alone is longer.  Every slot's pairs
  lie in one run, so the sum runs per run in the same order as one pass
  over the whole table would.  Zero terms are never skipped, so the
  degree <= d part of a product is bitwise the same whatever the
  operands hold above degree d.  :func:`product_slice` computes the
  degree-d slots alone, as the run of that one block, so they are
  bitwise those of the full product.
* Every power x^alpha of a vector argument comes from one
  :class:`PowerTable`, which fills the powers one degree slice at a time
  with :func:`product_slice`: the recursive solver and the fixed point in
  step with the unknown they solve for, :meth:`VectorSeries.compose` and
  :meth:`SeriesFamily.evaluate` at every degree.
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


# Longest run of the pair table, in pairs.  The table is built, and every
# product reads it, in runs of whole output-degree blocks of at most this many
# pairs (a block longer than that is a run alone), so the temporaries of a
# large table are one run long, not one table long.
_BLOCK = 1 << 14


class _PairTable:
    """Slot pairs (i, j) with deg i + deg j <= D, sorted by the slot of i + j.

    Within one output slot the pairs are in ascending i.  Because graded-lex
    order puts degrees <= d first, the table of a truncation d <= D is the
    prefix ``[:cut[d]]`` of this one.  It is built run by run (:meth:`runs`):
    each run is sorted on its own and written in place, so the table comes
    out as one sort of the whole would leave it.
    """

    def __init__(self, n: int, D: int):
        self.D = D
        self._runs: dict = {}
        exps = np.array(_basis(n, D).indices[: slot_count(n, D)], dtype=np.intp)
        degrees = exps.sum(axis=1)
        per_degree = np.bincount(degrees)
        # the slots of degree < d, and the pairs of output degree <= d
        self._below = np.concatenate(([0], np.cumsum(per_degree)))
        self.cut = np.cumsum(np.convolve(per_degree, per_degree)[: D + 1])
        size = int(self.cut[D])
        self.left = np.empty(size, dtype=np.intp)
        self.right = np.empty(size, dtype=np.intp)
        # output index of each real and imaginary part, interleaved
        self.out2 = np.empty(2 * size, dtype=np.intp)
        # The slot of an index g of degree d is slot_count(n, d) - 1 less the
        # indices of degree d after it; those first above g at axis p - 1
        # number C(r_p + n - p - 1, n - p), with the tail sum r_p = g_p + ...
        # + g_(n-1).  Tail sums add over a pair, so each term is a lookup.
        tails = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1].T.copy()
        weight = np.array([[math.comb(t + n, n) - 1 for t in range(D + 1)]] + [
            [-math.comb(t + n - p - 1, n - p) for t in range(D + 1)] for p in range(1, n)
        ], dtype=np.intp)
        for lo, hi, base, top in self.runs(D):
            # slot i of degree k pairs with the slots of degree first - k ..
            # last - k, one contiguous range; the pairs are listed by i, then
            # j, so a stable sort by output slot keeps each slot's in ascending i
            first, last = degrees[base], degrees[top - 1]
            k = degrees[:top]
            start = self._below[np.maximum(first - k, 0)]
            counts = self._below[last + 1 - k] - start
            left = np.repeat(np.arange(top, dtype=np.intp), counts)
            right = np.arange(hi - lo, dtype=np.intp)
            right -= np.repeat(np.cumsum(counts) - counts - start, counts)
            out = np.zeros(hi - lo, dtype=np.intp)
            for tail, w in zip(tails, weight):
                r = tail[left]
                r += tail[right]
                out += np.take(w, r, out=r)
            # a stable sort on the narrowest type that holds the run's slots
            # (numpy radix-sorts up to 16 bits) gives the same order, faster
            out -= base
            order = np.argsort(out.astype(np.min_scalar_type(top - base - 1)), kind="stable")
            out += base
            np.take(left, order, out=self.left[lo:hi])
            del left
            np.take(right, order, out=self.right[lo:hi])
            del right
            out = out[order]
            out *= 2
            self.out2[2 * lo: 2 * hi: 2] = out
            out += 1
            self.out2[2 * lo + 1: 2 * hi: 2] = out

    def runs(self, T: int):
        """Runs of the truncation-T table: (first pair, end pair, first slot, end slot).

        Whole output-degree blocks are grouped from degree 0 up while a run
        stays within ``_BLOCK`` pairs; a longer block is a run alone.  Every
        output slot's pairs lie in one run, so a product summed run by run
        adds the same terms in the same order as one pass over the table.
        """
        runs = self._runs.get(T)
        if runs is None:
            pairs = [0] + self.cut[: T + 1].tolist()  # pairs of output degree < d
            slots = self._below.tolist()
            bounds, first = [], 0
            for d in range(1, T + 1):
                if pairs[d + 1] - pairs[first] > _BLOCK:
                    bounds.append((first, d))
                    first = d
            bounds.append((first, T + 1))
            runs = self._runs[T] = [(pairs[a], pairs[b], slots[a], slots[b]) for a, b in bounds]
        return runs


# Each cache holds, per number of variables, the entry for the largest
# truncation built so far; it serves every smaller truncation as a prefix.
_CACHE_DIMENSIONS = 8
_BASES: dict = {}
_PAIR_TABLES: dict = {}


def _cached(cache: dict, build, n: int, D: int):
    entry = cache.pop(n, None)
    if entry is None or entry.D < D:
        entry = None  # release a smaller entry before building its successor
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


def product_slice(a, b, n: int, D: int, d: int):
    """The degree-d slots of the truncation-D product of two slot vectors, 0 <= d <= D.

    Bitwise the slots ``slot_count(n, d - 1):slot_count(n, d)`` of
    :meth:`ScalarSeries.multiply`.  For n = 1 it is the one dot product
    ``numpy.convolve`` takes for slot d; for n >= 2 it is the degree-d block
    of the pair table, one run summed as every run of a full product is.
    Slot 0 is one pair, and numpy can round a one-element product apart from
    the same product in a longer array, so d = 0 runs with degree 1 as well.
    """
    if n == 1:
        return np.convolve(a[: d + 1], b[: d + 1], mode="valid")
    table = _pair_table(n, D)
    if d == 0:
        top = min(D, 1)
        return _product_run(a, b, table, 0, table.cut[top], 0, slot_count(n, top))[:1]
    return _product_run(a, b, table, table.cut[d - 1], table.cut[d],
                        slot_count(n, d - 1), slot_count(n, d))


def _product_run(a, b, table: _PairTable, lo: int, hi: int, base: int, top: int):
    """Output slots ``base:top`` of a * b from the table's pairs ``lo:hi``, which are all of theirs."""
    terms = a[table.left[lo:hi]]
    terms *= b[table.right[lo:hi]]
    acc = np.bincount(table.out2[2 * lo: 2 * hi], weights=terms.view(np.float64),
                      minlength=2 * top)
    return acc.view(np.complex128)[base:]


class PowerTable:
    """The powers x^alpha of an ``(n, M)`` slot array x, filled one degree slice at a time.

    It holds the given indices and their parent chains: the parent of alpha
    is alpha - e_i for the first nonzero axis i, and x^alpha is the parent's
    power times x_i.  Degree 0 is one and degree 1 the rows of x themselves,
    so x must have no constant term.  :meth:`fill` (d) writes the degree-d
    slots of every power of degree 2..d with :func:`product_slice`, parents
    first.  It reads x only below degree d, so x may be filled in step with
    the table; filled at d = 2..D in turn, every power is bitwise the chain
    of full :meth:`ScalarSeries.multiply` products.
    """

    def __init__(self, x, alphas, D: int):
        self.x, self.n, self.D = x, len(x), D
        parent: dict = {}
        for alpha in alphas:
            while sum(alpha) >= 2 and alpha not in parent:
                i = next(k for k, a in enumerate(alpha) if a > 0)
                parent[alpha] = (index_sub(alpha, unit_index(self.n, i)), i)
                alpha = parent[alpha][0]
        self._chain = [(alpha, *parent[alpha]) for alpha in sorted(parent, key=graded_key)]
        self.power = {alpha: np.zeros(x.shape[1], dtype=complex) for alpha in parent}
        self.power[(0,) * self.n] = np.eye(1, x.shape[1], dtype=complex)[0]
        self.power.update((unit_index(self.n, i), x[i]) for i in range(self.n))

    def fill(self, d: int) -> None:
        lo, hi = slot_count(self.n, d - 1), slot_count(self.n, d)
        for alpha, up, i in self._chain:
            if sum(alpha) > d:
                break
            self.power[alpha][lo:hi] = product_slice(self.power[up], self.x[i], self.n, self.D, d)

    def fill_all(self) -> "PowerTable":
        """Fill every degree 2..D; returns the table."""
        for d in range(2, self.D + 1):
            self.fill(d)
        return self


def _slot(basis: _Basis, alpha, n: int, trunc: int):
    """Slot of a validated index, or None above the truncation."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ValueError(f"bad index {alpha} for n={n}")
    return basis.slot[alpha] if sum(alpha) <= trunc else None


# ---------------------------------------------------------------------------
# the dense storage shared by scalar and vector series
# ---------------------------------------------------------------------------

class _DenseSeries:
    """Graded-lex storage: a complex array whose last axis is the slot axis.

    The array has shape ``(M,)`` for a scalar series and ``(n, M)`` for a
    vector series, ``M = slot_count(n, trunc)``, and is never modified after
    construction.  Every operation that reads the same on both kinds lives
    here; each acts on the whole array at once.
    """

    __slots__ = ("n", "trunc", "_v")

    @classmethod
    def _from(cls, n: int, trunc: int, array):
        s = cls.__new__(cls)
        s.n = n
        s.trunc = trunc
        s._v = array
        return s

    def _wrap(self, array):
        return self._from(self.n, self.trunc, array)

    def _check(self, other):
        if type(other) is not type(self) or self.n != other.n or self.trunc != other.trunc:
            raise TruncationMismatch(
                f"incompatible series: n={self.n},D={self.trunc} vs "
                f"n={other.n},D={other.trunc}"
            )

    def _used(self):
        """Mask of the slots holding a nonzero coefficient in some row."""
        return (self._v != 0).reshape(-1, self._v.shape[-1]).any(axis=0)

    def _support(self):
        indices = _basis(self.n, self.trunc).indices
        return frozenset(indices[i] for i in np.flatnonzero(self._used()).tolist())

    # -- queries ---------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._v.any()

    def valuation(self):
        nz = np.flatnonzero(self._used())
        if not len(nz):
            return math.inf
        return int(_basis(self.n, self.trunc).degrees[nz[0]])

    def znorm(self) -> float:
        v = self.valuation()
        return 0.0 if v is math.inf else 2.0 ** (-v)

    def max_abs(self) -> float:
        return float(np.abs(self._v).max())

    # -- arithmetic -----------------------------------------------------------
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

    def truncate(self, new_trunc: int):
        if new_trunc == self.trunc:
            return self
        if new_trunc < 0:
            raise ValueError("truncation degree must be non-negative")
        size = slot_count(self.n, new_trunc)
        if size <= self._v.shape[-1]:
            array = self._v[..., :size]
        else:
            array = np.zeros(self._v.shape[:-1] + (size,), dtype=complex)
            array[..., : self._v.shape[-1]] = self._v
        return self._from(self.n, new_trunc, array)

    # -- comparison ------------------------------------------------------------
    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.trunc == other.trunc
            and bool(np.array_equal(self._v, other._v))
        )

    def __hash__(self):
        return hash((self.n, self.trunc, tuple(self._v.ravel().tolist())))

    def approx_equal(self, other, rel=1e-9, abs_tol=1e-12) -> bool:
        """Every row within max(abs_tol, rel * max(1, its largest modulus in either series))."""
        self._check(other)
        scale = np.maximum(np.abs(self._v).max(axis=-1), np.abs(other._v).max(axis=-1))
        gap = np.abs(self._v - other._v).max(axis=-1)
        return bool((gap <= np.maximum(abs_tol, rel * np.maximum(scale, 1.0))).all())


# ---------------------------------------------------------------------------
# scalar series
# ---------------------------------------------------------------------------

class ScalarSeries(_DenseSeries):
    """A single truncated power series in ``n`` variables.

    Coefficients live in a dense complex vector over the graded-lex slots
    of degree <= ``trunc``; indices above the truncation degree are dropped
    at construction.  The vector is never modified after construction.
    """

    __slots__ = ()

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
        return cls._from(n, trunc, vector)

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

    support = property(_DenseSeries._support)

    def __len__(self):
        return int(np.count_nonzero(self._v))

    # -- arithmetic -----------------------------------------------------------
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
        table = _pair_table(self.n, self.trunc)
        runs = table.runs(self.trunc)
        if len(runs) == 1:
            return self._wrap(_product_run(a, b, table, *runs[0]))
        out = np.empty_like(a)
        for lo, hi, base, top in runs:
            out[base:top] = _product_run(a, b, table, lo, hi, base, top)
        return self._wrap(out)

    def __repr__(self):
        terms = ", ".join(f"{a}:{c:.4g}" for a, c in self.items()[:6])
        more = "..." if len(self) > 6 else ""
        return f"ScalarSeries(n={self.n}, D={self.trunc}, {{{terms}{more}}})"


# ---------------------------------------------------------------------------
# vector series
# ---------------------------------------------------------------------------

class VectorSeries(_DenseSeries):
    """An n-component truncated series in n variables; the space germs live in.

    Stored as one ``(n, slot_count(n, trunc))`` array whose rows are the
    components.
    """

    __slots__ = ()

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
        self.n = n
        self.trunc = D
        self._v = np.array([c.vector for c in components])

    # -- constructors -----------------------------------------------------------
    @classmethod
    def zero(cls, n, trunc):
        return cls.from_array(n, trunc, np.zeros((n, slot_count(n, trunc)), dtype=complex))

    @classmethod
    def identity(cls, n, trunc):
        """z -> z: row i holds z_i."""
        return cls.from_coeffs(n, trunc, {unit_index(n, i): unit_index(n, i) for i in range(n)})

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
        """Wrap an ``(n, slot_count(n, trunc))`` complex array, one row per component, without copying."""
        return cls._from(n, trunc, array)

    # -- queries ---------------------------------------------------------------
    @property
    def components(self):
        """The components as scalar series, each a view of its row."""
        return tuple(ScalarSeries.from_vector(self.n, self.trunc, row) for row in self._v)

    def component(self, j) -> ScalarSeries:
        return ScalarSeries.from_vector(self.n, self.trunc, self._v[j])

    def coefficient(self, alpha):
        return tuple(c.get(alpha) for c in self.components)

    def to_array(self):
        """The ``(n, slots)`` coefficient array, one row per component (the storage itself)."""
        return self._v

    support = _DenseSeries._support

    def coeff_items(self):
        """(index, coefficient vector) pairs in graded lexicographic order."""
        nz = np.flatnonzero(self._used())
        indices = _basis(self.n, self.trunc).indices
        columns = self._v[:, nz].T.tolist()
        return [(indices[i], tuple(col)) for i, col in zip(nz.tolist(), columns)]

    def per_degree_max(self):
        """degree -> max coefficient modulus over all components, sorted by degree."""
        mags = np.abs(self._v).max(axis=0)
        starts = [slot_count(self.n, d - 1) if d else 0 for d in range(self.trunc + 1)]
        top = np.maximum.reduceat(mags, starts)
        return {d: float(m) for d, m in enumerate(top.tolist()) if m > 0}

    def homogeneous(self, d: int) -> "VectorSeries":
        """The degree-d part, at the same truncation."""
        lo = slot_count(self.n, d - 1) if d > 0 else 0
        hi = slot_count(self.n, d) if d <= self.trunc else lo
        array = np.zeros_like(self._v)
        array[:, lo:hi] = self._v[:, lo:hi]
        return self._wrap(array)

    # -- arithmetic --------------------------------------------------------------
    def mul_scalar_series(self, s: ScalarSeries) -> "VectorSeries":
        """Each component times ``s``: one :meth:`ScalarSeries.multiply` per row."""
        return self._wrap(np.array([comp.multiply(s).vector for comp in self.components]))

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
        constant = np.flatnonzero(inner._v[:, 0])
        if len(constant):
            raise CompositionError(
                f"inner component {constant[0]} has valuation 0; composition undefined"
            )
        n, D = self.n, self.trunc
        inner_val = inner.valuation()
        # valuation(inner) >= 1 makes deg(power) >= |alpha|: skip vanishing ones
        terms = [(alpha, vec) for alpha, vec in self.coeff_items()
                 if sum(alpha) == 0 or inner_val * sum(alpha) <= D]
        acc = np.zeros((n, slot_count(n, D)), dtype=complex)
        powers = PowerTable(inner._v, [alpha for alpha, _ in terms], D).fill_all().power
        for alpha, vec in terms:
            acc += np.multiply.outer(vec, powers[alpha])
        return VectorSeries.from_array(n, D, acc)

    def compose_diagonal(self, lam) -> "VectorSeries":
        """F(diag(lam) z): the coefficient of z^alpha times lam^alpha, slot by slot.

        The same series as :meth:`compose` with the inner series
        ``(lam_1 z_1, ..., lam_n z_n)``, without its products.
        """
        exps = np.array(graded_indices(self.n, self.trunc), dtype=np.intp)
        lam_alpha = np.prod(np.array(lam, dtype=complex) ** exps, axis=1)
        return self._wrap(self._v * lam_alpha)


# ---------------------------------------------------------------------------
# formal derivatives and the shift family
# ---------------------------------------------------------------------------

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
