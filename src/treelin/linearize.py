"""Solvers for the linearization problems and the generic inversion fixed point.

Three routes to the same tangent-to-identity change of variables h, all
behind :func:`solve`:

* order-by-order recursion on the conjugacy equation (divide each new degree
  slice by its divisors),
* the explicit sum over labeled rooted trees, compiled into one polynomial
  per coefficient in the nonzero coefficients of f, built over subtrees;
  this route lives in :mod:`treelin.trees` (``TreePlan``, ``tree_plan``),
  which :func:`solve` reaches only when the tree method is chosen, so a
  recursive or fixed-point process never runs that module,
* the generic non-expanding fixed-point iteration driven by the shift
  family of f.

All three agree coefficient-wise on their shared validity range; the tests
and the acceptance suite make that executable.  Summation order inside the
tree sum is normative (see :class:`trees.LinePolynomials` and
:class:`trees.TreePlan`), so totals are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import trees
from .divisors import (
    DEFAULT_TOL,
    FieldSpectrum,
    GermSpectrum,
    apply_forward_D,
    apply_inverse_D,
    divide_slots,
    divisor_table,
)
from .errors import (
    CoefficientOverflow,
    CompositionError,
    NoContraction,
    TruncationMismatch,
)
from .series import (
    PowerTable,
    ScalarSeries,
    SeriesFamily,
    VectorSeries,
    degree,
    formal_derivative,
    graded_indices,
    product_slice,
    shift_expand,
    slot_count,
)

# ---------------------------------------------------------------------------
# problems and solutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Germ:
    """A diffeomorphism germ z -> A z + f(z) with diagonal linear part."""

    spectrum: GermSpectrum
    f: VectorSeries

    def __post_init__(self):
        if self.spectrum.n != self.f.n:
            raise ValueError("spectrum and series dimension disagree")
        if not self.f.is_zero() and self.f.valuation() < 2:
            raise ValueError("the nonlinear part must have valuation >= 2")


@dataclass(frozen=True)
class VectorField:
    """A vector field dz/dt = A z + f(z) with diagonal linear part."""

    spectrum: FieldSpectrum
    f: VectorSeries

    def __post_init__(self):
        if self.spectrum.n != self.f.n:
            raise ValueError("spectrum and series dimension disagree")
        if not self.f.is_zero() and self.f.valuation() < 2:
            raise ValueError("the nonlinear part must have valuation >= 2")


@dataclass(frozen=True)
class Linearization:
    """A solution h (H = z + h) with provenance and residual metadata.

    The residual fields are the :class:`ConjugacyReport` of h, so
    ``max_rel`` is that report's relative defect.
    """

    h: VectorSeries
    method: str
    degree: int
    residual_znorm: float
    residual_max: float
    residual_scale: float
    clipped: tuple = ()

    @property
    def conforming(self) -> bool:
        return not self.clipped

    @property
    def max_rel(self) -> float:
        return self.residual_max / self.residual_scale


@dataclass(frozen=True)
class ConjugacyReport:
    znorm: float
    max_abs: float
    scale: float
    degree: int

    @property
    def max_rel(self) -> float:
        return self.max_abs / self.scale


# ---------------------------------------------------------------------------
# operator handles
# ---------------------------------------------------------------------------


class OperatorHandle:
    """An additive, valuation-non-decreasing map on vector series."""

    name = "operator"

    def __call__(self, g: VectorSeries) -> VectorSeries:
        raise NotImplementedError


class IdentityOperator(OperatorHandle):
    name = "identity"

    def __call__(self, g: VectorSeries) -> VectorSeries:
        return g


class InverseDivisorOperator(OperatorHandle):
    """Division by the divisors of a spectrum, defined on valuation >= 2."""

    def __init__(self, spectrum, tol: float = DEFAULT_TOL):
        self.spectrum = spectrum
        self.tol = tol
        self.name = f"inverse-divisor[{spectrum.key()[0]}]"

    def __call__(self, g: VectorSeries) -> VectorSeries:
        return apply_inverse_D(self.spectrum, g, self.tol)


# ---------------------------------------------------------------------------
# recursive solver
# ---------------------------------------------------------------------------


def _solve_recursive(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    """Degree-by-degree solution, online: each power of z + h is built once.

    The degree-d part of the equation is D h_d = [f(z + h)]_d.  Because f
    and h have valuation >= 2, the degree-d slots of (z + h)^alpha for
    |alpha| >= 2 depend only on h below degree d, which is final by then.
    So a :class:`series.PowerTable` over the support of f fills one degree
    slice of every power before that slice of h is solved, and the sum over
    alpha runs in graded-lex order, as in :meth:`VectorSeries.compose`.
    :func:`solve` silences numpy's overflow warnings, so the check of each
    finished slice is what reports one.
    """
    n = f.n
    indices = graded_indices(n, D)
    F = f.to_array()
    terms = [(indices[s], F[:, s]) for s in np.flatnonzero(F.any(axis=0)).tolist()]
    H = VectorSeries.identity(n, D).to_array().copy()  # written below, so not the storage
    h = np.zeros_like(H)
    table = PowerTable(H, [alpha for alpha, _ in terms], D)
    clipped: list = []
    for d in range(2, D + 1):
        lo, hi = slot_count(n, d - 1), slot_count(n, d)
        table.fill(d)
        rhs = np.zeros((n, hi - lo), dtype=complex)
        for alpha, coef in terms:
            if sum(alpha) > d:
                break
            rhs += np.multiply.outer(coef, table.power[alpha][lo:hi])
        h_d = divide_slots(spectrum, rhs, D, lo, tol, on_small_divisor, clipped)
        if not np.isfinite(h_d).all():
            raise CoefficientOverflow(d)
        h[:, lo:hi] = H[:, lo:hi] = h_d
    return VectorSeries.from_array(n, D, h), tuple(clipped)


def solve_recursive_germ(germ: Germ, D: int, on_small_divisor: str = "raise",
                         tol: float = DEFAULT_TOL) -> Linearization:
    """Degree-by-degree solution of the conjugacy equation for a germ."""
    return solve(germ, D, "recursive", on_small_divisor, tol)


def solve_recursive_field(field_: VectorField, D: int, on_small_divisor: str = "raise",
                          tol: float = DEFAULT_TOL) -> Linearization:
    """Degree-by-degree solution of the straightening equation for a field."""
    return solve(field_, D, "recursive", on_small_divisor, tol)


# ---------------------------------------------------------------------------
# tree-sum solver
# ---------------------------------------------------------------------------


def solve_tree_germ(germ: Germ, D: int, on_small_divisor: str = "raise",
                    tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a germ."""
    return solve(germ, D, "tree", on_small_divisor, tol)


def solve_tree_field(field_: VectorField, D: int, on_small_divisor: str = "raise",
                     tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a vector field (same trees, field divisors)."""
    return solve(field_, D, "tree", on_small_divisor, tol)


# ---------------------------------------------------------------------------
# generic fixed point
# ---------------------------------------------------------------------------


# Largest change of a settled degree, relative to the largest coefficient of
# the previous iterate, that fixed_point_inversion still counts as no change.
SETTLED_RTOL = 1e-12


def fixed_point_inversion(op, family: SeriesFamily, u, w: VectorSeries, D: int) -> VectorSeries:
    """Solve H = op(w + u * family(H)) through degree D, one new degree per step.

    The family must be the expansion of the right-hand side about zero, with
    coefficients of valuation >= 1 at |beta| = 1 (as the shift family of a
    map of valuation >= 2 has), and op additive and valuation-non-decreasing.
    Then, for H of valuation >= 1, degree T of op(w + u * family(H)) depends
    only on the degrees < T of H.  So step T = 1, ..., D adds only degree T
    of the right-hand side, from a :class:`series.PowerTable` of the iterate
    filled at T, and applies op once to the right-hand side truncated at T,
    which settles degree T (step 1 settles degrees 0 and 1).  A coefficient
    of valuation 0 at |beta| = 1 raises :class:`NoContraction` up front, and
    an iterate with a constant term raises :class:`CompositionError` at the
    next step.  Each step must leave the degrees below T as the step before
    left them, to within ``SETTLED_RTOL`` times that iterate's largest
    coefficient; a larger move means op does not contract and raises
    :class:`NoContraction`.  An iterate with a non-finite coefficient raises
    :class:`CoefficientOverflow`.  The kernel's products do not read degrees
    above those they return, so every degree is bitwise what iterating the
    whole family at truncation D until an iterate repeats gives.
    """
    if family.inner_trunc != D:
        raise TruncationMismatch("family truncation must match the target degree")
    n = family.n
    items = [(beta, sum(beta), g.to_array()) for beta, g in family.items()]
    for beta, size, g in items:
        if size == 1 and g[:, 0].any():
            raise NoContraction(f"the family's coefficient at beta = {beta} has valuation 0")
    X = np.zeros((n, slot_count(n, D)), dtype=complex)  # the iterate, settled degrees only
    table = PowerTable(X, [beta for beta, _, _ in items], D)
    w = w.truncate(D).to_array()
    rhs = np.zeros_like(X)
    for T in range(D + 1):
        if X[:, 0].any():
            raise CompositionError(f"the iterate of step {T - 1} has a constant term")
        lo, hi = slot_count(n, T - 1), slot_count(n, T)
        table.fill(T)
        acc = np.zeros((n, hi - lo), dtype=complex)
        for beta, size, g in items:
            if size > T:
                break
            acc += [product_slice(row, table.power[beta], n, D, T) for row in g]
        rhs[:, lo:hi] = w[:, lo:hi] + acc * complex(u)
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


def _solve_fixedpoint(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    if on_small_divisor != "raise":
        raise ValueError("the fixed-point solver has no clip mode")
    op = InverseDivisorOperator(spectrum, tol)
    divisor_table(spectrum, D)  # every step divides by a prefix of this table
    return fixed_point_inversion(op, shift_expand(f), 1.0, VectorSeries.zero(f.n, D), D), ()


def solve_fixedpoint_germ(germ: Germ, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    return solve(germ, D, "fixedpoint", tol=tol)


def solve_fixedpoint_field(field_: VectorField, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    return solve(field_, D, "fixedpoint", tol=tol)


# ---------------------------------------------------------------------------
# the solver entry point
# ---------------------------------------------------------------------------

# the tree route is trees._solve_tree, looked up by solve() at call time
_METHODS = {
    "recursive": _solve_recursive,
    "fixedpoint": _solve_fixedpoint,
}


def solve(problem, D: int, method: str = "recursive", on_small_divisor: str = "raise",
          tol: float = DEFAULT_TOL) -> Linearization:
    """Linearize a germ or a vector field to degree D by one of the three methods.

    The kinds differ only in the spectrum, whose divisors each method
    divides by, and in the defect :func:`verify_conjugacy` measures.  A
    divisor below ``tol`` raises :class:`DivisorBelowTolerance`, or with
    ``on_small_divisor="clip"`` (recursive and tree only) its coefficient
    is set to zero and recorded in ``clipped``.  A non-finite coefficient
    of h raises :class:`CoefficientOverflow` naming its degree.
    """
    if method == "tree":
        route = trees._solve_tree
    elif method in _METHODS:
        route = _METHODS[method]
    else:
        raise ValueError(f"unknown method {method!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        h, clipped = route(problem.spectrum, problem.f.truncate(D), D, on_small_divisor, tol)
    rep = verify_conjugacy(problem, _check_finite(h))
    return Linearization(h, method, D, rep.znorm, rep.max_abs, rep.scale, clipped)


def _check_finite(h: VectorSeries) -> VectorSeries:
    """``h``, or :class:`CoefficientOverflow` naming its first degree with a non-finite coefficient."""
    finite = np.isfinite(h.to_array()).all(axis=0)
    if not finite.all():
        raise CoefficientOverflow(sum(graded_indices(h.n, h.trunc)[int(np.argmin(finite))]))
    return h


# ---------------------------------------------------------------------------
# classical one-dimensional formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InversionTable:
    """Per-order coefficients of the one-dimensional inversion series.

    ``orders[N-1]`` is the coefficient of u^N as a series in w; the solution
    of h = u G(h) + w is H(u, w) = w + sum_N u^N orders[N-1](w).
    """

    G: ScalarSeries
    orders: tuple

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
        out.append(formal_derivative(power, (N - 1,)).scale(1.0 / N))
    return InversionTable(G, tuple(out))


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------


def verify_conjugacy(problem, h) -> ConjugacyReport:
    """Defect of a candidate linearization at the stored truncation.

    Germ: F(H(z)) - H(A z) with H = z + h.  Field: the straightening defect
    (forward divisor operator applied to h) minus f(z + h).  Reports the
    z-adic norm and the largest coefficient modulus of the defect, plus the
    scale max(1, |f|, |h|) for relative comparisons.
    """
    if isinstance(h, Linearization):
        h = h.h
    spectrum, f = problem.spectrum, problem.f
    n = f.n
    D = h.trunc
    f = f.truncate(D)
    ident = VectorSeries.identity(n, D)
    H = ident + h
    if isinstance(problem, Germ):
        lam = np.array(spectrum.lam)
        FH = VectorSeries.from_array(n, D, H.to_array() * lam[:, None]) + f.compose(H)
        defect = FH - H.compose_diagonal(lam)
    else:
        defect = apply_forward_D(spectrum, h) - f.compose(ident + h)
    scale = max(1.0, f.max_abs(), h.max_abs())
    return ConjugacyReport(defect.znorm(), defect.max_abs(), scale, D)
