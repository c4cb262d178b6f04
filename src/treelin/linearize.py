"""Solvers for the linearization problems and the generic inversion fixed point.

Three routes to the same tangent-to-identity change of variables h:

* order-by-order recursion on the conjugacy equation (divide each new degree
  slice by its divisors),
* the explicit sum over labeled rooted trees, compiled into one polynomial
  per coefficient in the nonzero coefficients of f, built over subtrees,
* the generic non-expanding fixed-point iteration driven by the shift
  family of f.

All three agree coefficient-wise on their shared validity range; the tests
and the acceptance suite make that executable.  Summation order inside the
tree sum is normative (see :class:`trees.LinePolynomials` and
:class:`TreePlan`), so totals are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product

import numpy as np

from .divisors import (
    DEFAULT_TOL,
    FieldSpectrum,
    GermSpectrum,
    apply_forward_D,
    apply_inverse_D,
    divide_slots,
    settle_small_divisors,
)
from .errors import (
    CoefficientOverflow,
    NoContraction,
    TruncationMismatch,
)
from .series import (
    ScalarSeries,
    SeriesFamily,
    VectorSeries,
    degree,
    formal_derivative,
    graded_indices,
    graded_key,
    index_sub,
    multi_factorial,
    product_slice,
    shift_expand,
    slot_count,
    unit_index,
)
from .trees import LinePolynomials, standard_decomposition

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
    """A solution h (H = z + h) with provenance and residual metadata."""

    h: VectorSeries
    method: str
    degree: int
    residual_znorm: float
    residual_max: float
    clipped: tuple = ()

    @property
    def conforming(self) -> bool:
        return not self.clipped


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
    So one dense vector per power of the support of f (and its parent
    chain, alpha - e_i for the first nonzero axis i) is filled one degree
    slice at a time, and the sum over alpha runs in graded-lex order, as in
    :meth:`VectorSeries.compose`.  :func:`solve` silences numpy's overflow
    warnings, so the check of each finished slice is what reports one.
    """
    n = f.n
    indices = graded_indices(n, D)
    F = f.to_array()
    terms = [(indices[s], F[:, s]) for s in np.flatnonzero(F.any(axis=0)).tolist()]
    H = VectorSeries.identity(n, D).to_array().copy()  # written below, so not the storage
    h = np.zeros_like(H)
    parent: dict = {}
    for alpha, _ in terms:
        while sum(alpha) >= 2 and alpha not in parent:
            i = next(k for k, a in enumerate(alpha) if a > 0)
            parent[alpha] = (index_sub(alpha, unit_index(n, i)), i)
            alpha = parent[alpha][0]
    powers = {unit_index(n, i): H[i] for i in range(n)}
    chain = sorted(parent, key=graded_key)
    for alpha in chain:
        powers[alpha] = np.zeros(H.shape[1], dtype=complex)
    clipped: list = []
    for d in range(2, D + 1):
        lo, hi = slot_count(n, d - 1), slot_count(n, d)
        for alpha in chain:
            if sum(alpha) > d:
                break
            up, i = parent[alpha]
            powers[alpha][lo:hi] = product_slice(powers[up], H[i], n, D, d)
        rhs = np.zeros((n, hi - lo), dtype=complex)
        for alpha, coef in terms:
            if sum(alpha) > d:
                break
            rhs += np.multiply.outer(coef, powers[alpha][lo:hi])
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

# compiled plans (see TreePlan) of the _TREE_PLAN_LIMIT most recently used
# (spectrum, n, D, variables, tol)
_TREE_PLANS: OrderedDict = OrderedDict()
_TREE_PLAN_LIMIT = 16


@dataclass(frozen=True)
class TreePlan:
    """The tree sum of h as arrays over the nonzero coefficients of f.

    The variables are those coefficients f_{L,a}, in graded-lex order of L,
    then by axis (:func:`_tree_variables`).  Let v be their values followed
    by a 1.  Row r adds ``const[r] * prod(v[rows[r]])`` to the flat slot
    ``slots[r]`` (axis * slot_count + slot) of h.  Index rows list a
    monomial's variables in ascending order, padded with the 1; the rows of
    a slot run in lexicographic order of their index rows.  ``clipped``
    holds the (alpha, j, modulus) records of the lines whose divisor is
    below the tolerance.  ``summands[d - 2]`` and ``monomials[d - 2]``
    count the labelings summed and the rows of the coefficients of
    degree d.
    """

    const: np.ndarray
    rows: np.ndarray
    slots: np.ndarray
    clipped: tuple
    summands: tuple
    monomials: tuple


def _tree_variables(f: VectorSeries):
    """The nonzero coefficients of f as TreePlan variables, and their values."""
    F = f.to_array()
    slots, axes = np.nonzero(F.T)
    indices = graded_indices(f.n, f.trunc)
    variables = tuple((indices[s], a) for s, a in zip(slots.tolist(), axes.tolist()))
    return variables, F.T[slots, axes]


def tree_plan(problem, D: int, tol: float = DEFAULT_TOL) -> TreePlan:
    """The (cached) tree plan :func:`solve` uses for ``problem`` at degree D."""
    variables, _ = _tree_variables(problem.f.truncate(D))
    return _tree_plan(problem.spectrum, D, variables, tol)


def _tree_plan(spectrum, D: int, variables: tuple, tol: float) -> TreePlan:
    n = spectrum.n
    key = (spectrum.key(), n, D, variables, tol)
    plan = _TREE_PLANS.get(key)
    if plan is not None:
        _TREE_PLANS.move_to_end(key)
        return plan
    lines = LinePolynomials(spectrum, variables, D, tol)
    M = slot_count(n, D)
    slot_of = {alpha: s for s, alpha in enumerate(graded_indices(n, D))}
    keys: list = []
    const: list = []
    slots: list = []
    summands = [0] * (D - 1)
    monomials = [0] * (D - 1)
    for (nu, a), poly in lines.poly.items():
        keys.extend(poly)
        const.extend(poly.values())
        slots.extend([a * M + slot_of[nu]] * len(poly))
        summands[degree(nu) - 2] += lines.count[(nu, a)]
        monomials[degree(nu) - 2] += len(poly)
    rows = _index_rows(keys, len(variables))
    slots = np.array(slots, dtype=np.intp)
    order = np.lexsort(tuple(rows[:, c] for c in reversed(range(rows.shape[1]))) + (slots,))
    plan = TreePlan(np.array(const, dtype=complex)[order], rows[order],
                    slots[order], tuple(lines.clipped), tuple(summands), tuple(monomials))
    _TREE_PLANS[key] = plan
    if len(_TREE_PLANS) > _TREE_PLAN_LIMIT:
        _TREE_PLANS.popitem(last=False)
    return plan


def _index_rows(keys: list, V: int) -> np.ndarray:
    """Monomial keys (one exponent byte per variable) as rows of variable indices padded with V."""
    exps = np.frombuffer(b"".join(k.to_bytes(V, "little") for k in keys),
                         dtype=np.uint8).reshape(len(keys), V)
    row, var = np.nonzero(exps)
    reps = exps[row, var]
    row, var = np.repeat(row, reps), np.repeat(var, reps)  # one entry per factor
    lengths = np.bincount(row, minlength=len(keys))
    rows = np.full((len(keys), int(lengths.max(initial=0))), V, dtype=np.int32)
    rows[row, np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]] = var
    return rows


def _solve_tree(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    """Explicit tree-sum solution (the same trees for germs and fields).

    Each coefficient is the sum over labeled rooted trees of the divisor and
    coefficient product, weighted per node by binom(label, entering axes)
    times beta!/m! (the multinomial share of the ordered child slots).  The
    sum is compiled once per set of nonzero coefficients of f into a
    :class:`TreePlan`, and evaluated with one gather, one product per row
    and one sum per slot.
    """
    n = f.n
    variables, values = _tree_variables(f)
    plan = _tree_plan(spectrum, D, variables, tol)
    clipped: list = []
    settle_small_divisors(plan.clipped, on_small_divisor, clipped)
    terms = plan.const * np.append(values, 1.0)[plan.rows].prod(axis=1)
    h = np.zeros(n * slot_count(n, D), dtype=complex)
    h.real = np.bincount(plan.slots, terms.real, h.size)
    h.imag = np.bincount(plan.slots, terms.imag, h.size)
    return VectorSeries.from_array(n, D, h.reshape(n, -1)), tuple(clipped)


def solve_tree_germ(germ: Germ, D: int, on_small_divisor: str = "raise",
                    tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a germ."""
    return solve(germ, D, "tree", on_small_divisor, tol)


def solve_tree_field(field_: VectorField, D: int, on_small_divisor: str = "raise",
                     tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a vector field (same trees, field divisors)."""
    return solve(field_, D, "tree", on_small_divisor, tol)


# ---------------------------------------------------------------------------
# generic fixed point and per-tree values
# ---------------------------------------------------------------------------


def fixed_point_inversion(op, family: SeriesFamily, u, w: VectorSeries, D: int,
                          max_iter: int | None = None) -> VectorSeries:
    """Iterate H <- op(w + u * family(H)) to degree-D stability.

    The family must be the expansion of the right-hand side about zero.  A
    non-expanding op gains at least one unit of valuation per step, so the
    iteration stabilizes within D iterations; failure to gain raises
    :class:`NoContraction`, and an iterate with a non-finite coefficient
    raises :class:`CoefficientOverflow`.
    """
    if family.inner_trunc != D:
        raise TruncationMismatch("family truncation must match the target degree")
    w = w.truncate(D) if w.trunc != D else w
    H = op(w)
    last_gain = -1
    limit = max_iter if max_iter is not None else D + 3
    for _ in range(limit):
        Hn = _check_finite(op(w + family.evaluate(H).scale(u)))
        diff = Hn - H
        if diff.is_zero():
            return Hn
        gain = diff.valuation()
        if gain > D:
            return Hn
        if gain <= last_gain:
            raise NoContraction(
                f"no valuation gain: stuck at {gain} (was {last_gain})"
            )
        last_gain = gain
        H = Hn
    raise NoContraction(f"did not stabilize within {limit} iterations")


def tree_value(theta, op, family: SeriesFamily, u, w: VectorSeries | None = None) -> VectorSeries:
    """Value of one rooted tree in the inversion expansion.

    ``family`` must be the expansion of the right-hand side about op(w)
    (about zero for the linearization problems, where w = 0); ``w`` itself
    is not consulted.  End nodes contribute op(g_0 * u); an internal node of
    degree t contributes the t-th differential of the family applied to the
    child values, divided by t!.
    """
    n, D = family.n, family.inner_trunc
    t, subs = standard_decomposition(tuple(theta))
    if t == 0:
        return op(family.coeff((0,) * n).scale(u))
    vals = [tree_value(s, op, family, u, w) for s in subs]
    acc = VectorSeries.zero(n, D)
    inv_t_fact = 1.0 / math.factorial(t)
    for axes in product(range(n), repeat=t):
        gamma = [0] * n
        for ax in axes:
            gamma[ax] += 1
        gamma = tuple(gamma)
        g = family.coeff(gamma)
        if g.is_zero():
            continue
        term = g
        dead = False
        for i, ax in enumerate(axes):
            comp = vals[i].component(ax)
            if comp.is_zero():
                dead = True
                break
            term = term.mul_scalar_series(comp)
        if dead:
            continue
        acc = acc + term.scale(u * multi_factorial(gamma) * inv_t_fact)
    return op(acc)


def _solve_fixedpoint(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    if on_small_divisor != "raise":
        raise ValueError("the fixed-point solver has no clip mode")
    op = InverseDivisorOperator(spectrum, tol)
    return fixed_point_inversion(op, shift_expand(f), 1.0, VectorSeries.zero(f.n, D), D), ()


def solve_fixedpoint_germ(germ: Germ, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    return solve(germ, D, "fixedpoint", tol=tol)


def solve_fixedpoint_field(field_: VectorField, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    return solve(field_, D, "fixedpoint", tol=tol)


# ---------------------------------------------------------------------------
# the solver entry point
# ---------------------------------------------------------------------------

_METHODS = {
    "recursive": _solve_recursive,
    "tree": _solve_tree,
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
    try:
        route = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        h, clipped = route(problem.spectrum, problem.f.truncate(D), D, on_small_divisor, tol)
    rep = verify_conjugacy(problem, _check_finite(h))
    return Linearization(h, method, D, rep.znorm, rep.max_abs, clipped)


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
