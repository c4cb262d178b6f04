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
  neither the values nor the support of its operands.  :func:`product_slice`
  computes one output degree d: for n = 1 by ``numpy.convolve``, for n >= 2
  by ``numpy.bincount`` over block d of a pair table.  The block lists its
  pairs (i, j) by ascending i, then j; an output slot pairs each i with at
  most one j, and ``bincount`` adds a slot's terms in array order, so each
  slot sums its products a_i * b_j in ascending i.  Every step of a solve
  reads one output degree, so the table keeps only its newest block and
  builds any other anew, bitwise the same: a solve's memory is set by its
  largest block, not by the sum of its blocks.
  :meth:`ScalarSeries.multiply` is the concatenation of the slices, for
  every n.  Zero terms are never skipped, so the degree <= d part of a
  product is bitwise the same whatever the operands hold above degree d.
  Slot 0 is a one-pair block, which numpy may round apart from the same
  product in a longer array: with two nonzero constant terms it may differ
  in its last bit from a whole-table sum.  No solver forms such a product.
* Every power x^alpha of a vector argument comes from one
  :class:`PowerTable`, filled one degree slice at a time with
  :func:`product_slice`, and every composition sum is one of its two
  routines: :meth:`PowerTable.series_slots` forms f(x) for the recursive
  solver and :meth:`VectorSeries.compose`, :meth:`PowerTable.family_slice`
  G(x) for the fixed point and :meth:`families.SeriesFamily.evaluate`.
* The z-adic valuation of a series is the least total degree of a stored
  nonzero coefficient (``math.inf`` for the zero series); the matching
  ultrametric norm is ``2**-valuation``.

Every solve runs this module, so it holds only what the solvers share.
Formal derivatives, the weighted norm and series families live in
:mod:`treelin.families`, which only the fixed-point route and
``classical_lagrange_1d`` run; ``series.SeriesFamily`` and
``series.shift_expand`` still resolve there, by name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CompositionError, TruncationMismatch
from .indices import graded_key, index_sub, iter_indices, slot_count, unit_index

# ---------------------------------------------------------------------------
# the graded-lex basis and the product tables
# ---------------------------------------------------------------------------

class _Basis:
    """The indices of degree <= D in graded-lex order, with their slots."""

    def __init__(self, n: int, D: int):
        self.D = D
        self.indices = list(iter_indices(n, D))
        self.slot = {a: i for i, a in enumerate(self.indices)}


class _PairTable:
    """Per output degree d, the slot pairs (i, j) with deg i + deg j = d, one block at a time.

    Block d is ``(left, right, out2)``: the slots i and j of each pair, in the
    order they are generated (ascending i, then j), and the output index of
    their real and imaginary parts, interleaved, counted from the first slot
    of degree d.  An output slot meets each i at most once, so its pairs come
    in ascending i.  A block depends on n and d alone.  Every step of a solve
    reads one output degree, so the table streams: it keeps the newest block
    and builds any other from the slots' tail sums, which it keeps for every
    degree seen, at (n - 1) int32 per slot.  Its memory is set by the largest
    block, not by the sum of all of them.  ``terms`` fits the largest block's
    terms.
    """

    def __init__(self, n: int):
        self.n = n
        self.top = -1  # the degree of the kept block
        self.kept = None
        self.terms = np.empty(0, dtype=complex)
        # tail sums r_p = g_p + ... + g_(n-1), p = 1 .. n-1, of every slot of
        # degree <= self._tails_top
        self._tails = np.empty((n - 1, 0), dtype=np.int32)
        self._tails_top = -1

    def block(self, d: int):
        """Block ``d``: the kept block, or a new one that replaces it."""
        if d != self.top:
            self.top, self.kept = -1, None  # release the old block before building
            self.kept, self.top = self._build(d), d
        return self.kept

    def _build(self, d: int):
        n = self.n
        if d > self._tails_top:
            g = np.array(list(iter_indices(n, d, self._tails_top + 1)), dtype=np.int32)
            self._tails = np.hstack((self._tails, np.cumsum(g[:, :0:-1], 1, np.int32)[:, ::-1].T))
            self._tails_top = d
        count = [math.comb(k + n - 1, n - 1) for k in range(d + 1)]  # slots of degree k
        size = sum(a * b for a, b in zip(count, reversed(count)))
        # the block and its term buffer are allocated before the temporaries,
        # so they can take the memory the previous block and its temporaries
        # left free
        left, right = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
        out2 = np.empty((size, 2), dtype=np.intp)
        if len(self.terms) < size:
            self.terms = np.empty(0, dtype=complex)  # released before its successor
            self.terms = np.empty(size, dtype=complex)
        # slot i of degree k pairs with the slots of degree d - k, one
        # contiguous range
        per_slot = np.repeat(count[::-1], count)
        start = np.repeat(np.cumsum([0] + count)[d::-1], count)  # first slot of degree d - k
        left[:] = np.repeat(np.arange(sum(count), dtype=np.intp), per_slot)
        right[:] = np.arange(size) - np.repeat(np.cumsum(per_slot) - per_slot - start, per_slot)
        # The slot of an index g of degree d is its block's last, less the
        # indices of degree d after it; those first above g at axis p - 1
        # number C(r_p + n - p - 1, n - p).  Tail sums add over a pair, so
        # each term is a lookup.  Every partial difference lies in 0 .. last,
        # so it is computed in the narrowest type that holds the block's slots.
        out = np.full(size, count[d] - 1, dtype=np.min_scalar_type(count[d] - 1))
        for p, tail in enumerate(self._tails, start=1):
            w = np.array([math.comb(t + n - p - 1, n - p) for t in range(d + 1)], out.dtype)
            out -= w[tail[left] + tail[right]]
        np.multiply(out, 2, out=out2[:, 0], dtype=np.intp)
        np.add(out2[:, 0], 1, out=out2[:, 1])
        return left, right, out2.ravel()


# The derived tables of the package (bases and pair tables) are cached in
# plain dicts in insertion order, oldest first.  A caller pops its key,
# builds or grows the entry, and stores it back with _recent.  A basis is
# rebuilt for a larger truncation and serves every smaller one as a prefix.
# A pair table keeps one block, the newest, and the tail sums of the slots
# it has seen, so its size is set by its largest block.
_CACHE_LIMIT = 16
_BASES: dict = {}
_PAIR_TABLES: dict = {}

# slots that iter_terms reads from the array at once: enough to spread numpy's
# per-call cost, few enough that the terms in hand stay a few tens of KB
_TERM_CHUNK = 256


def _recent(cache: dict, key, entry):
    """Store ``entry`` as the newest of ``cache``, dropping the oldest past ``_CACHE_LIMIT``."""
    cache[key] = entry
    if len(cache) > _CACHE_LIMIT:
        del cache[next(iter(cache))]
    return entry


def _basis(n: int, D: int) -> _Basis:
    entry = _BASES.pop(n, None)
    if entry is None or entry.D < D:
        entry = None  # release a smaller entry before building its successor
        entry = _Basis(n, D)
    return _recent(_BASES, n, entry)


def _pair_table(n: int) -> _PairTable:
    return _recent(_PAIR_TABLES, n, _PAIR_TABLES.pop(n, None) or _PairTable(n))


def graded_indices(n: int, D: int) -> list:
    """The indices of degree <= D in slot order (graded lexicographic)."""
    return _basis(n, D).indices[: slot_count(n, D)]


_GATHER = 1 << 16  # pairs whose b_j product_slice gathers at once


def product_slice(a, b, n: int, d: int):
    """The degree-d slots of the product of two slot vectors holding degrees <= d at least.

    For n = 1 it is the one dot product ``numpy.convolve`` takes for slot d;
    for n >= 2 each slot sums its pairs of the table's block d in order.  The
    terms go to the table's buffer, so two products of one n never run at once.
    """
    if n == 1:
        return np.convolve(a[: d + 1], b[: d + 1], mode="valid")
    if len(a) < slot_count(n, d):
        raise IndexError(f"a degree-{d} slice reads {slot_count(n, d)} slots, got {len(a)}")
    table = _pair_table(n)
    left, right, out2 = table.block(d)
    # a fresh terms array per product page-faults whenever the C allocator has
    # returned the last one to the system
    terms = np.take(a, left, out=table.terms[: len(left)], mode="clip")
    # gathered whole, b[right] would take fresh pages as large as the buffer
    for lo in range(0, len(left), _GATHER):
        terms[lo:lo + _GATHER] *= b[right[lo:lo + _GATHER]]
    return np.bincount(out2, weights=terms.view(np.float64)).view(np.complex128)


class PowerTable:
    """The powers x^alpha of an ``(n, M)`` slot array x, filled one degree slice at a time.

    It holds the given indices and their parent chains: the parent of alpha
    is alpha - e_i for the first nonzero axis i, and x^alpha is the parent's
    power times x_i.  Degree 0 is one and degree 1 the rows of x themselves,
    so x must have no constant term.  :meth:`fill` (d) writes the degree-d
    slots of every power of degree 2..d with :func:`product_slice`, parents
    first.  It reads x only below degree d, so x may be filled in step with
    the table; filled at d = 2..D in turn, every power is bitwise the chain
    of full :meth:`ScalarSeries.multiply` products.  The two sums take
    ``terms``, (alpha, coefficient) pairs over held indices in graded-lex
    order, and add them in that order.
    """

    def __init__(self, x, alphas):
        self.x, self.n = x, len(x)
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
            self.power[alpha][lo:hi] = product_slice(self.power[up], self.x[i], self.n, d)

    def series_slots(self, terms, lo: int, hi: int, top: int):
        """Slots ``lo:hi`` of f(x) = sum c_alpha x^alpha over the terms with |alpha| <= top."""
        out = np.zeros((self.n, hi - lo), dtype=complex)
        for alpha, c in terms:
            if sum(alpha) > top:
                break
            out += np.multiply.outer(c, self.power[alpha][lo:hi])
        return out

    def family_slice(self, terms, d: int):
        """Degree d of G(x) = sum g_beta x^beta, one :func:`product_slice` per row of g_beta."""
        out = np.zeros((self.n, slot_count(self.n, d) - slot_count(self.n, d - 1)), dtype=complex)
        for beta, g in terms:
            if sum(beta) > d:
                break
            out += [product_slice(row, self.power[beta], self.n, d) for row in g]
        return out


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

    def iter_terms(self):
        """The nonzero terms (index, coefficient) in graded lexicographic order, made lazily.

        A scalar series' coefficient is a complex, a vector series' a list
        with one complex per component.  The array is read ``_TERM_CHUNK``
        slots at a time, so the terms of a large series are never all held
        at once.
        """
        indices = _basis(self.n, self.trunc).indices
        nz = np.flatnonzero(self._used())
        for start in range(0, len(nz), _TERM_CHUNK):
            slots = nz[start:start + _TERM_CHUNK].tolist()
            yield from zip([indices[i] for i in slots], self._v[..., slots].T.tolist())

    # -- queries ---------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._v.any()

    def valuation(self):
        nz = np.flatnonzero(self._used())
        if not len(nz):
            return math.inf
        return sum(_basis(self.n, self.trunc).indices[nz[0]])

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
                if i is not None:
                    self._v[i] = complex(c)  # a -0.0 part is kept, as from_coeffs keeps it

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
        return list(self.iter_terms())

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
        return self._wrap(np.concatenate([product_slice(a, b, self.n, d)
                                          for d in range(self.trunc + 1)]))

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
        return [(alpha, tuple(vec)) for alpha, vec in self.iter_terms()]

    def per_degree_max(self):
        """degree -> max coefficient modulus over all components, sorted by degree."""
        mags = np.abs(self._v).max(axis=0)
        starts = [slot_count(self.n, d - 1) if d else 0 for d in range(self.trunc + 1)]
        top = np.maximum.reduceat(mags, starts)
        return {d: float(m) for d, m in enumerate(top.tolist()) if m > 0}

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
        # inner^alpha has valuation >= |alpha| valuation(inner): the terms above top vanish
        top = int(self.trunc // inner.valuation())
        terms = self.coeff_items()
        table = PowerTable(inner._v, [alpha for alpha, _ in terms if sum(alpha) <= top])
        for d in range(2, self.trunc + 1):
            table.fill(d)
        return self._wrap(table.series_slots(terms, 0, inner._v.shape[1], top))


# The benchmark's tracer still looks these up here.  Only they are forwarded:
# the import system probes other attributes (__path__) on every
# `from .series import ...`, and a catch-all would run treelin.families.
_MOVED = ("SeriesFamily", "shift_expand")


def __getattr__(name: str):
    if name in _MOVED:
        from . import families

        return getattr(families, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
