"""Solvers for the linearization problems and the generic inversion fixed point.

:func:`solve` is the one solver entry point.  It takes a :class:`Germ` or a
:class:`VectorField`, which share one functional equation and differ only
in the divisors of their spectrum, and reaches h (H = z + h) by one of three
routes:

* order-by-order recursion on the conjugacy equation (divide each new degree
  slice by its divisors),
* the explicit sum over labeled rooted trees, built over subtrees as one
  polynomial per coefficient in the nonzero coefficients of f and evaluated
  at f; this route lives in :mod:`treelin.treesum`,
* the generic non-expanding fixed-point iteration driven by the shift
  family of f, :func:`fixed_point_inversion`, whose operator is any
  callable from vector series to vector series (here division by the
  divisors); the family comes from :mod:`treelin.families`.

:func:`solve` looks the tree route and the shift family up when it runs
them, so a recursive process runs neither module, a fixed-point process
only ``families`` and a tree process only ``treesum``.

All three agree coefficient-wise on their shared validity range; the tests
and the acceptance suite make that executable.  Summation order inside the
tree sum is normative (see :class:`treesum.LinePolynomials` and
:func:`treesum._solve_tree`), so totals are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import families, treesum
from .divisors import RESONANCE_TOL, apply_forward_D, apply_inverse_D, divide_slots, divisor_table
from .errors import (
    CoefficientOverflow,
    CompositionError,
    NoContraction,
    ResourceLimit,
    TruncationMismatch,
)
from .indices import degree, slot_count
from .records import Record
from .series import PowerTable, ScalarSeries, VectorSeries, graded_indices

# ---------------------------------------------------------------------------
# problems and solutions
# ---------------------------------------------------------------------------


def _check_problem(problem):
    """Refuse a problem whose spectrum and f differ in dimension, or whose f has valuation < 2."""
    if problem.spectrum.n != problem.f.n:
        raise ValueError("spectrum and series dimension disagree")
    if not problem.f.is_zero() and problem.f.valuation() < 2:
        raise ValueError("the nonlinear part must have valuation >= 2")


class Germ(Record):
    """A diffeomorphism germ z -> A z + f(z) with diagonal linear part.

    ``spectrum`` is a :class:`GermSpectrum` and ``f`` a :class:`VectorSeries`.
    """

    __slots__ = ("spectrum", "f")

    __post_init__ = _check_problem


class VectorField(Record):
    """A vector field dz/dt = A z + f(z) with diagonal linear part.

    ``spectrum`` is a :class:`FieldSpectrum` and ``f`` a :class:`VectorSeries`.
    """

    __slots__ = ("spectrum", "f")

    __post_init__ = _check_problem


class ConjugacyReport(Record):
    """Largest defect coefficient ``max_abs`` at truncation ``degree``; ``max_rel`` is it over ``scale``."""

    __slots__ = ("max_abs", "scale", "degree")

    @property
    def max_rel(self) -> float:
        return self.max_abs / self.scale


class Linearization(Record):
    """A solution h (H = z + h) with provenance and its :class:`ConjugacyReport`.

    ``tree_counts`` is None, or the tree route's (summands, monomials) per degree 2..D.
    """

    __slots__ = ("h", "method", "degree", "residual", "clipped", "tree_counts")

    @property
    def conforming(self) -> bool:
        return not self.clipped


# ---------------------------------------------------------------------------
# the online recursion: h, the reach pass and the majorant
# ---------------------------------------------------------------------------


def _online(table: VectorSeries, f: VectorSeries, finish, clipped: list | None = None) -> VectorSeries:
    """x through degree f.trunc from D x_d = [f(z + x)]_d, D the divisors of ``table``.

    Degree d of f(z + x) reads x only below d, as f and x have valuation
    >= 2, so a :class:`series.PowerTable` of z + x over f's support fills it
    one degree at a time.  :func:`divisors.divide_slots` divides it, given
    ``clipped``, and ``finish(d, slice)`` is degree d of x for later degrees.
    """
    n, D = f.n, f.trunc
    terms = f.coeff_items()
    X = VectorSeries.identity(n, D).to_array().copy()  # z + x, written below
    powers = PowerTable(X, [alpha for alpha, _ in terms])
    for d in range(2, D + 1):
        lo, hi = slot_count(n, d - 1), slot_count(n, d)
        powers.fill(d)
        X[:, lo:hi] = finish(d, divide_slots(table, powers.series_slots(terms, lo, hi, d), lo, clipped))
    X[:, : n + 1] = 0  # x = (z + x) - z
    return VectorSeries.from_array(n, D, X)


def _finite(series: str, d: int, values):
    """``values``, degree d of ``series``, or :class:`CoefficientOverflow` if one is not finite."""
    if not np.isfinite(values).all():
        raise CoefficientOverflow(d, series)
    return values


def _mapped(s: VectorSeries, fn) -> VectorSeries:
    """``s`` with ``fn`` applied to its coefficient array, as complex."""
    return VectorSeries.from_array(s.n, s.trunc, fn(s.to_array()).astype(complex))


def _solve_recursive(table: VectorSeries, f: VectorSeries) -> VectorSeries:
    """The recursive route: the online recursion for h, whose overflow names h."""
    return _online(table, f, lambda d, values: _finite("h", d, values))


# ---------------------------------------------------------------------------
# generic fixed point
# ---------------------------------------------------------------------------


# Largest change of a settled degree, relative to the largest coefficient of
# the previous iterate, that fixed_point_inversion still counts as no change.
SETTLED_RTOL = 1e-12


def fixed_point_inversion(op, family: families.SeriesFamily, u, w: VectorSeries, D: int) -> VectorSeries:
    """Solve H = op(w + u * family(H)) through degree D, one new degree per step.

    The family must be the expansion of the right-hand side about zero, with
    coefficients of valuation >= 1 at |beta| = 1 (as the shift family of a
    map of valuation >= 2 has), and op additive and valuation-non-decreasing.
    Then, for H of valuation >= 1, degree T of op(w + u * family(H)) depends
    only on the degrees < T of H.  So step T = 1, ..., D adds degree T of
    the right-hand side (:meth:`series.PowerTable.family_slice`) and applies
    op once to the right-hand side truncated at T, which settles degree T
    (step 1 settles degrees 0 and 1).  A coefficient of valuation 0 at
    |beta| = 1 raises :class:`NoContraction` up front, and an iterate with
    a constant term raises :class:`CompositionError` at the next step.  Each
    step must leave the degrees below T as the step before left them, to
    within ``SETTLED_RTOL`` times that iterate's largest coefficient; a
    larger move means op does not contract and raises
    :class:`NoContraction`.  An iterate with a non-finite coefficient raises
    :class:`CoefficientOverflow`.  The kernel's products do not read degrees
    above those they return, so every degree is bitwise what iterating the
    whole family at truncation D until an iterate repeats gives.
    """
    if family.inner_trunc != D:
        raise TruncationMismatch("family truncation must match the target degree")
    n = family.n
    terms = [(beta, g.to_array()) for beta, g in family.items()]
    for beta, g in terms:
        if sum(beta) == 1 and g[:, 0].any():
            raise NoContraction(f"the family's coefficient at beta = {beta} has valuation 0")
    X = np.zeros((n, slot_count(n, D)), dtype=complex)  # the iterate, settled degrees only
    table = PowerTable(X, [beta for beta, _ in terms])
    w = w.truncate(D).to_array()
    rhs = np.zeros_like(X)
    for T in range(D + 1):
        if X[:, 0].any():
            raise CompositionError(f"the iterate of step {T - 1} has a constant term")
        lo, hi = slot_count(n, T - 1), slot_count(n, T)
        table.fill(T)
        rhs[:, lo:hi] = w[:, lo:hi] + table.family_slice(terms, T) * complex(u)
        if T == 0 and D > 0:
            continue  # step 1 settles degrees 0 and 1
        Hn = _check_finite(op(VectorSeries.from_array(n, T, rhs[:, :hi].copy())))
        if T > 1:
            _check_settled(H, Hn)
        H = Hn
        X[:, :hi] = H.to_array()
    return H


def _check_settled(H: VectorSeries, Hn: VectorSeries):
    """:class:`NoContraction` unless ``Hn`` keeps the degrees <= H.trunc of ``H``."""
    old = H.to_array()
    moved = np.abs(Hn.to_array()[:, : old.shape[1]] - old).max(axis=0)
    bad = np.flatnonzero(moved > SETTLED_RTOL * np.abs(old).max())
    if len(bad):
        d = degree(graded_indices(H.n, H.trunc)[bad[0]])
        raise NoContraction(f"degree {d} moved by {moved[bad[0]]:.3g} after it settled "
                            f"(step {Hn.trunc})")


def _solve_fixedpoint(table: VectorSeries, f: VectorSeries) -> VectorSeries:
    """h as the fixed point of f(z + h) divided by the divisors of ``table``, one degree per step."""
    _check_finite(f)  # the products would turn it into NaN (inf * 0) below its degree
    # the operator looks apply_inverse_D up per call, so a rebinding of
    # linearize.apply_inverse_D sees every division
    return fixed_point_inversion(lambda g: apply_inverse_D(table, g), families.shift_expand(f),
                                 1.0, VectorSeries.zero(f.n, f.trunc), f.trunc)


# ---------------------------------------------------------------------------
# the solver entry point
# ---------------------------------------------------------------------------

# Every route is (table, f) -> h, through degree f.trunc, where ``table``
# is divisors.divisor_table of the problem's spectrum at that degree with
# its small divisors resolved by solve(): the routes know the divisors, not
# the spectrum, and meet no small divisor.  The tree route is
# treesum._solve_tree, looked up by solve() at call time, and returns h with
# its counts.
_METHODS = {"recursive": _solve_recursive, "fixedpoint": _solve_fixedpoint}


def solve(problem, D: int, method: str = "recursive",
          on_small_divisor: str = "raise") -> Linearization:
    """Linearize a germ or a vector field to degree D by one of the three methods.

    The kinds differ only in the divisor table of their spectrum, which
    the method divides by and :func:`verify_conjugacy` multiplies by.  A
    slot (alpha, j) that f's support reaches over a divisor below
    ``divisors.RESONANCE_TOL`` raises :class:`DivisorBelowTolerance` naming
    the first such slot in graded-lex order, or with
    ``on_small_divisor="clip"`` becomes zero and is recorded in ``clipped``,
    whatever its value: :func:`_resolve_small_divisors` decides this once
    for every method, by the reach pass of the recursive route's online
    recursion.  Any other ``on_small_divisor`` raises :class:`ValueError`.
    A non-finite coefficient of h raises :class:`CoefficientOverflow`
    naming h and its degree.  A solve that runs out of memory or passes a
    count limit raises :class:`ResourceLimit` naming the method, n, D and
    the cause.
    """
    if on_small_divisor not in ("raise", "clip"):
        raise ValueError(f"on_small_divisor must be 'raise' or 'clip', not {on_small_divisor!r}")
    route = treesum._solve_tree if method == "tree" else _METHODS.get(method)
    if route is None:
        raise ValueError(f"unknown method {method!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            f = problem.f.truncate(D)
            table, clipped = _resolve_small_divisors(divisor_table(problem.spectrum, D), f, on_small_divisor)
            out = route(table, f)
        h, counts = out if method == "tree" else (out, None)
        residual = verify_conjugacy(problem, _check_finite(h))
    except MemoryError as exc:
        raise ResourceLimit(method, problem.f.n, D, "ran out of memory") from exc
    return Linearization(h, method, D, residual, clipped, counts)


def _resolve_small_divisors(table: VectorSeries, f: VectorSeries, mode: str):
    """``table`` with its divisors below ``RESONANCE_TOL`` set to inf, and the clipped records.

    Only when a slot of degree >= 2 holds one, a reach pass runs the online
    recursion through the last such degree over f as 0/1, the other
    divisors 1 and each degree reduced to 0/1.  It raises at the first slot
    f reaches over a small divisor, or in ``mode`` "clip" lists every such
    slot.  Its values are small counts, so no underflow or overflow hides one.
    """
    n, divs = table.n, table.to_array()
    small = np.abs(divs) < RESONANCE_TOL
    late = np.flatnonzero(small[:, n + 1:].any(axis=0))
    if not len(late):
        return table, ()
    top = degree(graded_indices(n, table.trunc)[n + 1 + late[-1]])
    clipped = [] if mode == "clip" else None
    _online(_mapped(table, lambda a: np.where(small, a, 1)), _mapped(f.truncate(top), lambda a: a != 0),
            lambda d, values: values != 0, clipped)
    return VectorSeries.from_array(n, table.trunc, np.where(small, np.inf, divs)), tuple(clipped or ())


def _check_finite(h: VectorSeries) -> VectorSeries:
    """``h``, or :class:`CoefficientOverflow` naming its first degree with a non-finite coefficient."""
    finite = np.isfinite(h.to_array()).all(axis=0)
    if not finite.all():
        raise CoefficientOverflow(sum(graded_indices(h.n, h.trunc)[int(np.argmin(finite))]))
    return h


def majorant(problem, D: int) -> VectorSeries:
    """The majorant M = |D|^-1 [|f|(z + M)] of the problem's h through degree D.

    It is the recursive route's online recursion over the moduli of the
    divisor table and of f, in which no sum cancels: M bounds the tree sum
    of h term by term, and M_alpha is the condition of h_alpha.  It raises
    at the first slot f reaches over a divisor below ``RESONANCE_TOL``, and
    at a non-finite M :class:`CoefficientOverflow` naming M.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table, f = _mapped(divisor_table(problem.spectrum, D), np.abs), _mapped(problem.f.truncate(D), np.abs)
        return _online(table, f, lambda d, values: _finite("the majorant M", d, values))


# ---------------------------------------------------------------------------
# classical one-dimensional formula
# ---------------------------------------------------------------------------


class InversionTable(Record):
    """Per-order coefficients of the one-dimensional inversion series.

    ``orders[N-1]`` is the coefficient of u^N as a series in w; the solution
    of h = u G(h) + w is H(u, w) = w + sum_N u^N orders[N-1](w).
    """

    __slots__ = ("G", "orders")

    def evaluate(self, u: complex, w: complex) -> complex:
        out = complex(w)
        for N, series in enumerate(self.orders, start=1):
            val = sum(c * w ** a[0] for a, c in series.items())
            out += u ** N * val
        return out


def classical_lagrange_1d(G: ScalarSeries, orders: int) -> InversionTable:
    """Taylor coefficients in u of the classical inversion series in one variable.

    The coefficient of u^N equals d^(N-1)[G(w)^N]/dw^(N-1) / N!, computed
    here as the binomial-weighted derivative of G^N divided by N.  Each
    entry is exact through degree trunc - (N - 1) of w.
    """
    if G.n != 1:
        raise ValueError("the classical formula is one-dimensional")
    if orders < 1:
        raise ValueError("need at least one order")
    out = []
    power = ScalarSeries.one(G.n, G.trunc)
    for N in range(1, orders + 1):
        power = power.multiply(G)
        out.append(families.formal_derivative(power, (N - 1,)).scale(1.0 / N))
    return InversionTable(G, tuple(out))


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------


def verify_conjugacy(problem, h: VectorSeries) -> ConjugacyReport:
    """Defect of a candidate h (H = z + h) at its truncation: D h - f(z + h).

    D multiplies by the problem's divisor table, built here, so one formula
    serves both kinds.  For a germ it is -(F(H) - H(A z)), slot by slot,
    since H(A z) - A H multiplies the coefficient of z^alpha in h by
    lambda^alpha - lambda_j.  Reports the largest coefficient modulus of the
    defect and the scale max(1, |f|, |h|) for relative comparisons.
    """
    D = h.trunc
    f = problem.f.truncate(D)
    table = divisor_table(problem.spectrum, D)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as an inf or NaN defect
        defect = apply_forward_D(table, h) - f.compose(VectorSeries.identity(h.n, D) + h)
    return ConjugacyReport(defect.max_abs(), max(1.0, f.max_abs(), h.max_abs()), D)
