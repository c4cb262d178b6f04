"""Coefficient-growth diagnostics and ultradifferentiable class machinery.

Weight sequences (M_k) define coefficient classes |f_alpha| <= A B^|alpha|
M_|alpha|; Gevrey-s uses M_k = (k!)^s and a geometric sequence C^k recovers
the analytic class.  All limsup-style conditions are reported as
bounded/unbounded over the computed range with the maximum recorded; no
extrapolation is attempted, and every empirical constant is an output,
never an assertion.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .divisors import (
    GermSpectrum,
    bruno_proxy,
    omega_frac,
)
from .errors import FamilyViolation, HypothesisViolated
from .linearize import Germ, VectorField, solve_recursive_field, solve_recursive_germ
from .series import VectorSeries, degree

# ---------------------------------------------------------------------------
# weight-sequence classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSpec:
    """A weight sequence (M_k), stored through log M_k for overflow safety."""

    kind: str
    param: tuple

    @classmethod
    def gevrey(cls, s: float):
        if s < 0:
            raise ValueError("Gevrey exponent must be >= 0")
        return cls("gevrey", (float(s),))

    @classmethod
    def geometric(cls, c: float):
        if c <= 0:
            raise ValueError("geometric ratio must be positive")
        return cls("geometric", (float(c),))

    @classmethod
    def from_table(cls, values):
        values = tuple(float(v) for v in values)
        if not values or any(v <= 0 for v in values):
            raise ValueError("table entries must be positive")
        return cls("table", values)

    def log_M(self, k: int) -> float:
        if k < 1:
            raise ValueError("weight sequences are indexed from k = 1")
        if self.kind == "gevrey":
            return self.param[0] * math.lgamma(k + 1)
        if self.kind == "geometric":
            return k * math.log(self.param[0])
        if k > len(self.param):
            raise ValueError(f"table class defined up to k = {len(self.param)}")
        return math.log(self.param[k - 1])

    def label(self) -> str:
        if self.kind == "gevrey":
            return f"gevrey:{self.param[0]:g}"
        if self.kind == "geometric":
            return f"geometric:{self.param[0]:g}"
        return f"table[{len(self.param)}]"


@dataclass(frozen=True)
class ClassReport:
    ok: bool
    smallest_c1: float
    inf_root: float
    failures: tuple


def validate_class(spec: ClassSpec, K: int, root_floor: float = 0.1,
                   tol: float = 1e-9, strict: bool = False) -> ClassReport:
    """Check the four weight-sequence hypotheses up to index K.

    0) inf M_k^(1/k) stays above ``root_floor`` (finite-range heuristic for
       positivity of the limit; sequences like 1/k! sink below any floor),
    1) M_(k+1) <= C_1^(k+1) M_k for the smallest admissible C_1 (reported),
    2) log-convexity, 3) M_k M_l <= M_(k+l-1).

    With ``strict`` a failure raises :class:`HypothesisViolated`.
    """
    if K < 3:
        raise ValueError("need K >= 3")
    logs = {k: spec.log_M(k) for k in range(1, K + 1)}
    failures = []
    inf_root = min(math.exp(logs[k] / k) for k in range(1, K + 1))
    if inf_root < root_floor:
        failures.append((0, min(range(1, K + 1), key=lambda k: logs[k] / k), None))
    smallest_c1 = max(
        math.exp((logs[k + 1] - logs[k]) / (k + 1)) for k in range(1, K)
    )
    for k in range(2, K):
        if logs[k + 1] + logs[k - 1] < 2 * logs[k] - tol:
            failures.append((2, k, None))
    for k in range(1, K + 1):
        for l in range(1, K + 1):
            if k + l - 1 <= K and logs[k] + logs[l] > logs[k + l - 1] + tol:
                failures.append((3, k, l))
    if strict and failures:
        raise HypothesisViolated(*failures[0])
    return ClassReport(not failures, smallest_c1, inf_root, tuple(failures))


@dataclass(frozen=True)
class MembershipFit:
    accepted: bool
    A: float
    B: float
    max_violation: float
    points: int
    reason: str = ""


def class_membership(h: VectorSeries, spec: ClassSpec) -> MembershipFit:
    """Least-squares envelope fit log|h_alpha| <= log A + |alpha| log B + log M_|alpha|.

    Fits on per-degree maxima and reports the largest excess over the fitted
    envelope.  A zero series is a rejection, not an error.
    """
    per_degree = h.per_degree_max()
    data = [(d, math.log(m) - spec.log_M(d)) for d, m in per_degree.items()
            if m > 0 and d >= 1]
    if len(data) < 2:
        return MembershipFit(False, math.nan, math.nan, math.nan, len(data),
                             "need at least two nonzero degrees")
    ds = np.array([d for d, _ in data], dtype=float)
    ys = np.array([y for _, y in data])
    slope, intercept = np.polyfit(ds, ys, 1)
    max_violation = float(np.max(ys - (intercept + slope * ds)))
    return MembershipFit(True, math.exp(intercept), math.exp(slope),
                         max_violation, len(data))


# ---------------------------------------------------------------------------
# arithmetical condition sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    values: tuple             # (degree, value) pairs
    max_value: float
    bruno_partials: tuple     # partial sums entering the bracket
    bounded_by: float | None  # the bound used for the verdict, if any
    bounded: bool | None


def condition_sequence(omega_of_p, P, class_m: ClassSpec, class_n: ClassSpec,
                       dmax: int, bound: float | None = None) -> ConditionReport:
    """Per-degree values 2 * sum_{m<=kappa(d)} log(1/Omega(p_(m+1)))/p_m - log(N_d/M_d)/d.

    Boundedness of this sequence over 2..dmax is the finite-range surrogate
    for the limsup smallness condition; the verdict against ``bound`` is
    reported alongside the raw values.
    """
    if dmax < 2:
        raise ValueError("dmax must be >= 2")
    for d in (dmax, max(2, dmax // 2)):
        if class_n.log_M(d) < class_m.log_M(d) - 1e-9:
            raise ValueError("the target sequence must eventually dominate the source")
    kmax = P.kappa(dmax)
    partial = []
    total = 0.0
    for m in range(kmax + 1):
        total += math.log(1.0 / omega_of_p(P[m + 1])) / P[m]
        partial.append(total)
    values = []
    for d in range(2, dmax + 1):
        kappa = P.kappa(d)
        bracket = 2.0 * partial[kappa]
        values.append((d, bracket - (class_n.log_M(d) - class_m.log_M(d)) / d))
    max_value = max(v for _, v in values)
    verdict = None if bound is None else (max_value <= bound)
    return ConditionReport(tuple(values), max_value, tuple(partial), bound, verdict)


# ---------------------------------------------------------------------------
# growth reports and radius estimation
# ---------------------------------------------------------------------------


# A log-linear fit with a leave-one-out spread needs this many degrees of h.
MIN_FIT_DEGREES = 3


@dataclass(frozen=True)
class GrowthReport:
    per_degree: tuple          # (degree, max modulus) pairs
    fit_degrees: tuple
    slope: float               # fitted d(log max)/d(degree)
    radius: float              # exp(-slope)
    jackknife_spread: float    # relative spread of leave-one-out radii
    divergent: bool


def growth_report(h: VectorSeries, window: float = 0.5) -> GrowthReport:
    """Log-linear fit of per-degree maxima over the top ``window`` share of degrees.

    The radius estimate is exp(-slope); low-degree transients are excluded
    by fitting only the top part of the degree range.  The jackknife spread
    (relative range of leave-one-out estimates) measures fit stability.
    With fewer than ``MIN_FIT_DEGREES`` nonzero degrees there is no fit:
    the slope, radius and spread are NaN and ``divergent`` is set.
    """
    per_degree = [(d, m) for d, m in h.per_degree_max().items() if m > 0]
    if len(per_degree) < MIN_FIT_DEGREES:
        return GrowthReport(tuple(per_degree), (), math.nan, math.nan, math.nan, True)
    dmax = per_degree[-1][0]
    cut = dmax - max(2, int(round(window * (dmax - per_degree[0][0]))))
    fit = [(d, m) for d, m in per_degree if d >= cut]
    if len(fit) < MIN_FIT_DEGREES:
        fit = per_degree
    ds = np.array([d for d, _ in fit], dtype=float)
    ys = np.array([math.log(m) for _, m in fit])
    slope = float(np.polyfit(ds, ys, 1)[0])
    radii = np.exp(-_leave_one_out_slopes(ds, ys)).tolist()
    spread = (max(radii) - min(radii)) / max(statistics.median(radii), 1e-300)
    return GrowthReport(
        tuple(per_degree), tuple(int(d) for d in ds), slope,
        math.exp(-slope), float(spread), False,
    )


def _leave_one_out_slopes(x, y):
    """Least-squares slopes of the line through (x, y) with point i left out, for every i.

    With centered data (the sums of x and y vanish) leaving out point i of
    m gives the slope ((m-1) Sxy - m x_i y_i) / ((m-1) Sxx - m x_i^2),
    where Sxx and Sxy are the centered sums over all m points.
    """
    m = len(x)
    x = x - x.mean()
    y = y - y.mean()
    return ((m - 1) * (x @ y) - m * x * y) / ((m - 1) * (x @ x) - m * x * x)


def majorant_partial_sums(h: VectorSeries, r: float):
    """Cumulative sums over degree of sum_|alpha|=d |h_alpha| r^d (all components)."""
    if r <= 0:
        raise ValueError("radius must be positive")
    by_degree: dict = {}
    for comp in h.components:
        for a, c in comp.items():
            d = degree(a)
            by_degree[d] = by_degree.get(d, 0.0) + abs(c)
    out = []
    total = 0.0
    for d in range(0, h.trunc + 1):
        total += by_degree.get(d, 0.0) * r ** d
        out.append((d, total))
    return out


# ---------------------------------------------------------------------------
# the quadratic-type germ family and the planar field family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadiusReport:
    k: int
    omega: float
    degree: int
    radius: float
    log_radius: float
    jackknife_spread: float
    bruno_value: float         # truncated Bruno series of k*omega
    reference_log_radius: float  # -B(k omega)/k + log(k)/k
    empirical_gap: float       # log_radius - reference
    bruno_terms: int


def germ_family_radius(k: int, omega: float, D: int = 40,
                       bruno_terms: int = 20) -> RadiusReport:
    """Radius estimate for the germ z -> lambda z (1 - z^k / k), lambda = e^(2 pi i omega).

    Solves to degree D, fits the coefficient growth, and reports the
    estimate next to the reference -B(k omega)/k + log(k)/k built from the
    truncated Bruno series.  The empirical gap is an output only.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    spectrum = GermSpectrum.from_rotation((omega,))
    lam = spectrum.lam[0]
    f = VectorSeries.from_coeffs(1, D, {(k + 1,): (-lam / k,)})
    lin = solve_recursive_germ(Germ(spectrum, f), D)
    rep = growth_report(lin.h)
    kw = (k * omega) % 1.0
    bruno = bruno_proxy(kw, bruno_terms)
    reference = -bruno / k + math.log(k) / k
    log_radius = math.log(rep.radius)
    return RadiusReport(
        k, omega, D, rep.radius, log_radius, rep.jackknife_spread,
        bruno, reference, log_radius - reference, bruno_terms,
    )


@dataclass(frozen=True)
class DomainReport:
    omega: float
    degree: int
    rho: float                # polydisk radius estimate (inf for h = 0)
    d_estimate: float         # sqrt(2) * rho
    log_d: float
    bruno_value: float
    gap: float                # log_d + B(omega)
    jackknife_spread: float
    majorant_r: float
    majorant_sums: tuple      # (degree, partial sum) pairs
    divergence_flag: bool


def vf_domain_estimate(field_: VectorField, D: int = 20, majorant_r: float = 0.5,
                       divergence_threshold: float = 1e6,
                       bruno_terms: int = 20) -> DomainReport:
    """Polydisk-size estimate for a normalized planar field (-z1, omega z2) + f.

    Validates the family shape (n = 2, spectrum (-1, omega) with omega > 0,
    all |f_alpha,j| <= 1), solves to degree D, fits rho from coefficient
    growth and reports d = sqrt(2) rho against the truncated Bruno value.
    The absolute-value majorant partial sums at ``majorant_r`` raise the
    divergence flag once they pass ``divergence_threshold``.
    """
    spectrum = field_.spectrum
    if spectrum.n != 2:
        raise ValueError("the normalized family is two-dimensional")
    w0, w1 = spectrum.omega
    if abs(w0 + 1.0) > 1e-9 or abs(w1.imag) > 1e-9 or w1.real <= 0:
        raise ValueError("the normalized family has spectrum (-1, omega), omega > 0")
    omega = float(w1.real)
    for alpha, vec in field_.f.coeff_items():
        for j, c in enumerate(vec):
            if abs(c) > 1.0 + 1e-12:
                raise FamilyViolation(alpha, j, abs(c))
    bruno = bruno_proxy(omega % 1.0, bruno_terms)
    if field_.f.is_zero():
        return DomainReport(omega, D, math.inf, math.inf, math.inf, bruno,
                            math.inf, 0.0, majorant_r, ((0, 0.0),), False)
    lin = solve_recursive_field(field_, D)
    rep = growth_report(lin.h)
    rho = rep.radius
    d_est = math.sqrt(2.0) * rho
    sums = majorant_partial_sums(lin.h, majorant_r)
    tail = [s for _, s in sums]
    flag = tail[-1] > divergence_threshold and all(
        b >= a for a, b in zip(tail, tail[1:])
    )
    return DomainReport(
        omega, D, rho, d_est, math.log(d_est), bruno,
        math.log(d_est) + bruno, rep.jackknife_spread,
        majorant_r, tuple(sums), flag,
    )


def proof_bound_constant(h: VectorSeries, class_m: ClassSpec, omega_of_p, P) -> float:
    """Smallest C with log|h_alpha| <= d log C + log M_d + 2 d sum_{m<=kappa(d)} ... for all alpha.

    The fitted constant makes the bound shape hold for every stored
    coefficient; it is a per-run report, not an asserted universal value.
    """
    best = 0.0
    partial_cache: dict = {}
    for comp in h.components:
        for alpha, c in comp.items():
            d = degree(alpha)
            if d < 2 or c == 0:
                continue
            kappa = P.kappa(d)
            if kappa not in partial_cache:
                total = 0.0
                for m in range(kappa + 1):
                    total += math.log(1.0 / omega_of_p(P[m + 1])) / P[m]
                partial_cache[kappa] = total
            lhs = math.log(abs(c)) - class_m.log_M(d) - 2.0 * d * partial_cache[kappa]
            best = max(best, math.exp(lhs / d))
    return best


def germ_omega_of_p(omega: float):
    """Omega(p) for a one-dimensional rotation number, as a callable on p."""
    return lambda p: omega_frac((omega,), p)
