"""Solvers for the linearization problems and the generic inversion fixed point.

Three routes to the same tangent-to-identity change of variables h:

* order-by-order recursion on the conjugacy equation (divide each new degree
  slice by its divisors),
* the explicit sum over labeled rooted trees, one summand per labeling,
* the generic non-expanding fixed-point iteration driven by the shift
  family of f.

All three agree coefficient-wise on their shared validity range; the tests
and the acceptance suite make that executable.  Summation order inside the
tree sum is normative (trees by ascending order, then lexicographic), so
totals are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product

from .divisors import (
    DEFAULT_TOL,
    FieldSpectrum,
    GermSpectrum,
    apply_forward_D,
    apply_inverse_D,
)
from .errors import DivisorBelowTolerance, NoContraction, TruncationMismatch
from .series import (
    ScalarSeries,
    SeriesFamily,
    VectorSeries,
    degree,
    formal_derivative,
    iter_indices,
    multi_factorial,
    reserve,
    shift_expand,
)
from .trees import enumerate_labeled, standard_decomposition

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
    n = f.n
    f = f.truncate(D)
    reserve(n, D)  # every truncation d <= D below reads a prefix of these tables
    h = VectorSeries.zero(n, D)
    clipped: list = []
    for d in range(2, D + 1):
        rhs = f.truncate(d).compose(VectorSeries.identity(n, d) + h.truncate(d))
        h = h + apply_inverse_D(
            spectrum, rhs.homogeneous(d).truncate(D), tol, on_small_divisor, clipped
        )
    return h, tuple(clipped)


def solve_recursive_germ(germ: Germ, D: int, on_small_divisor: str = "raise",
                         tol: float = DEFAULT_TOL) -> Linearization:
    """Degree-by-degree solution of the conjugacy equation for a germ."""
    h, clipped = _solve_recursive(germ.spectrum, germ.f, D, on_small_divisor, tol)
    rep = verify_conjugacy(germ, h)
    return Linearization(h, "recursive", D, rep.znorm, rep.max_abs, clipped)


def solve_recursive_field(field_: VectorField, D: int, on_small_divisor: str = "raise",
                          tol: float = DEFAULT_TOL) -> Linearization:
    """Degree-by-degree solution of the straightening equation for a field."""
    h, clipped = _solve_recursive(field_.spectrum, field_.f, D, on_small_divisor, tol)
    rep = verify_conjugacy(field_, h)
    return Linearization(h, "recursive", D, rep.znorm, rep.max_abs, clipped)


# ---------------------------------------------------------------------------
# tree-sum solver
# ---------------------------------------------------------------------------

# per-(alpha, axis) compiled summands: (constant, ((node label, node axis), ...)),
# for the _TREE_PLAN_LIMIT most recently used problems
_TREE_PLANS: OrderedDict = OrderedDict()
_TREE_PLAN_LIMIT = 16


def _tree_plan(spectrum, n: int, D: int, support_key: frozenset, tol: float):
    key = (spectrum.key(), n, D, support_key, tol)
    plan = _TREE_PLANS.get(key)
    if plan is not None:
        _TREE_PLANS.move_to_end(key)
        return plan
    plan = {}
    divisor_of: dict = {}
    for alpha in iter_indices(n, D, 2):
        for j in range(n):
            entries = []
            bad = None
            for N in range(1, degree(alpha)):
                for theta in enumerate_labeled(N, alpha, j, support_key, n,
                                               contributing_only=True):
                    const = complex(theta.weight * theta.binom_product)
                    ok = True
                    for nu, ax in zip(theta.momenta, theta.line_axes):
                        dv = divisor_of.get((nu, ax))
                        if dv is None:
                            dv = divisor_of[(nu, ax)] = spectrum.divisor(nu, ax)
                        if abs(dv) < tol:
                            bad = (nu, ax, abs(dv))
                            ok = False
                            break
                        const /= dv
                    if ok:
                        entries.append(
                            (const, tuple(zip(theta.node_labels, theta.line_axes)))
                        )
                    if bad:
                        break
                if bad:
                    break
            plan[(alpha, j)] = (tuple(entries), bad)
    _TREE_PLANS[key] = plan
    if len(_TREE_PLANS) > _TREE_PLAN_LIMIT:
        _TREE_PLANS.popitem(last=False)
    return plan


def _solve_tree(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    n = f.n
    f = f.truncate(D)
    support_key = frozenset(a for a in f.support() if degree(a) >= 2)
    plan = _tree_plan(spectrum, n, D, support_key, tol)
    fval = {}
    for alpha in support_key:
        vec = f.coefficient(alpha)
        for j, c in enumerate(vec):
            fval[(alpha, j)] = c
    coeffs: dict = {}
    clipped: list = []
    for alpha in iter_indices(n, D, 2):
        vec = [0j] * n
        touched = False
        for j in range(n):
            entries, bad = plan[(alpha, j)]
            if bad is not None:
                if on_small_divisor == "raise":
                    raise DivisorBelowTolerance(*bad)
                clipped.append((alpha, j, bad[2]))
                continue
            total = 0j
            for const, fkeys in entries:
                prod = const
                for fk in fkeys:
                    c = fval.get(fk)
                    if not c:
                        prod = 0j
                        break
                    prod *= c
                total += prod
            if total != 0:
                vec[j] = total
                touched = True
        if touched:
            coeffs[alpha] = tuple(vec)
    h = VectorSeries.from_coeffs(n, D, coeffs)
    return h, tuple(clipped)


def solve_tree_germ(germ: Germ, D: int, on_small_divisor: str = "raise",
                    tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a germ.

    Each coefficient is the sum over labeled rooted trees of the divisor and
    coefficient product, weighted per node by binom(label, entering axes)
    times beta!/m! (the multinomial share of the ordered child slots).
    """
    h, clipped = _solve_tree(germ.spectrum, germ.f, D, on_small_divisor, tol)
    rep = verify_conjugacy(germ, h)
    return Linearization(h, "tree", D, rep.znorm, rep.max_abs, clipped)


def solve_tree_field(field_: VectorField, D: int, on_small_divisor: str = "raise",
                     tol: float = DEFAULT_TOL) -> Linearization:
    """Explicit tree-sum solution for a vector field (same trees, field divisors)."""
    h, clipped = _solve_tree(field_.spectrum, field_.f, D, on_small_divisor, tol)
    rep = verify_conjugacy(field_, h)
    return Linearization(h, "tree", D, rep.znorm, rep.max_abs, clipped)


# ---------------------------------------------------------------------------
# generic fixed point and per-tree values
# ---------------------------------------------------------------------------


def fixed_point_inversion(op, family: SeriesFamily, u, w: VectorSeries, D: int,
                          max_iter: int | None = None) -> VectorSeries:
    """Iterate H <- op(w + u * family(H)) to degree-D stability.

    The family must be the expansion of the right-hand side about zero.  A
    non-expanding op gains at least one unit of valuation per step, so the
    iteration stabilizes within D iterations; failure to gain raises
    :class:`NoContraction`.
    """
    if family.inner_trunc != D:
        raise TruncationMismatch("family truncation must match the target degree")
    w = w.truncate(D) if w.trunc != D else w
    H = op(w)
    last_gain = -1
    limit = max_iter if max_iter is not None else D + 3
    for _ in range(limit):
        Hn = op(w + family.evaluate(H).scale(u))
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


def solve_fixedpoint_germ(germ: Germ, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    op = InverseDivisorOperator(germ.spectrum, tol)
    h = fixed_point_inversion(
        op, shift_expand(germ.f.truncate(D)), 1.0, VectorSeries.zero(germ.f.n, D), D
    )
    rep = verify_conjugacy(germ, h)
    return Linearization(h, "fixedpoint", D, rep.znorm, rep.max_abs)


def solve_fixedpoint_field(field_: VectorField, D: int, tol: float = DEFAULT_TOL) -> Linearization:
    op = InverseDivisorOperator(field_.spectrum, tol)
    h = fixed_point_inversion(
        op, shift_expand(field_.f.truncate(D)), 1.0, VectorSeries.zero(field_.f.n, D), D
    )
    rep = verify_conjugacy(field_, h)
    return Linearization(h, "fixedpoint", D, rep.znorm, rep.max_abs)


_SOLVERS = {
    ("germ", "recursive"): solve_recursive_germ,
    ("germ", "tree"): solve_tree_germ,
    ("germ", "fixedpoint"): solve_fixedpoint_germ,
    ("field", "recursive"): solve_recursive_field,
    ("field", "tree"): solve_tree_field,
    ("field", "fixedpoint"): solve_fixedpoint_field,
}


def solve(problem, D: int, method: str = "recursive", **kw) -> Linearization:
    kind = "germ" if isinstance(problem, Germ) else "field"
    try:
        fn = _SOLVERS[(kind, method)]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(problem, D, **kw)


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
        lam = spectrum.lam
        FH = VectorSeries([H.components[j].scale(lam[j]) for j in range(n)]) + f.compose(H)
        defect = FH - H.compose_diagonal(lam)
    else:
        defect = apply_forward_D(spectrum, h) - f.compose(ident + h)
    scale = max(1.0, f.max_abs(), h.max_abs())
    return ConjugacyReport(defect.znorm(), defect.max_abs(), scale, D)
