"""Class machinery, condition sequences, growth fits, radius and domain reports."""

from __future__ import annotations

import math

import numpy as np
import pytest

from treelin import (
    ClassSpec,
    FamilyViolation,
    FieldSpectrum,
    Germ,
    GermSpectrum,
    ResonantSpectrum,
    VectorField,
    VectorSeries,
    class_membership,
    condition_sequence,
    germ_family_radius,
    growth_report,
    majorant_partial_sums,
    solve,
    validate_class,
    vf_domain_estimate,
)
from treelin.diagnostics import germ_omega_of_p
from treelin.indices import iter_indices
from treelin.trees import ScaleSequence

from conftest import GOLDEN, SILVER, random_vector_series

LIOUVILLE = sum(10.0 ** -math.factorial(k) for k in range(1, 5))


# ---------------------------------------------------------------------------
# weight-sequence hypotheses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_validate_class_gevrey(s):
    report = validate_class(ClassSpec.gevrey(s), 40)
    assert report.ok
    assert report.smallest_c1 >= 1.0
    # k! l! <= (k+l-1)! is the binomial inequality behind hypothesis 3
    assert not report.failures


def test_validate_class_constant_sequence():
    report = validate_class(ClassSpec.geometric(1.0), 30)
    assert report.ok
    assert report.smallest_c1 == pytest.approx(1.0)


def test_validate_class_flags_reciprocal_factorial():
    # M_k = 1/k!: the k-th root sinks toward zero; flagged by the floor
    table = [1.0 / math.factorial(k) for k in range(1, 61)]
    report = validate_class(ClassSpec.from_table(table), 60)
    assert not report.ok
    assert any(h == 0 for h, _, _ in report.failures)


def test_validate_class_strict_raises():
    from treelin import HypothesisViolated

    table = [1.0 / math.factorial(k) for k in range(1, 61)]
    with pytest.raises(HypothesisViolated):
        validate_class(ClassSpec.from_table(table), 60, strict=True)


# ---------------------------------------------------------------------------
# membership fits
# ---------------------------------------------------------------------------


def test_class_membership_exact_geometric():
    h = VectorSeries.from_coeffs(
        1, 10, {(k,): (2.0 ** k,) for k in range(1, 11)}
    )
    fit = class_membership(h, ClassSpec.geometric(1.0))
    assert fit.accepted
    assert fit.B == pytest.approx(2.0, rel=1e-9)
    assert fit.A == pytest.approx(1.0, rel=1e-9)
    assert abs(fit.max_violation) < 1e-12


def test_class_membership_rejects_zero_series():
    fit = class_membership(VectorSeries.zero(1, 5), ClassSpec.geometric(1.0))
    assert not fit.accepted


def test_solved_germ_sits_in_analytic_class(rng):
    spec = GermSpectrum.from_rotation((GOLDEN,))
    f = random_vector_series(rng, 1, 20, min_degree=2, max_degree=4)
    lin = solve(Germ(spec, f), 20, "recursive")
    fit = class_membership(lin.h, ClassSpec.geometric(1.0))
    assert fit.accepted and math.isfinite(fit.B)
    # the envelope with the fitted constants covers every stored coefficient
    assert fit.max_violation < 2.0


# ---------------------------------------------------------------------------
# condition sequences
# ---------------------------------------------------------------------------


def test_condition_sequence_equal_classes_reduces_to_bruno():
    P = ScaleSequence.pow2()
    cls = ClassSpec.gevrey(1.0)
    rep = condition_sequence(germ_omega_of_p(GOLDEN), P, cls, cls, 100)
    # with N = M the value is exactly twice the Bruno partial sum
    assert rep.max_value == pytest.approx(2.0 * rep.bruno_partials[-1], rel=1e-9) \
        or rep.max_value <= 2.0 * rep.bruno_partials[-1] + 1e-12
    for d, v in rep.values:
        kappa = P.kappa(d)
        assert v == pytest.approx(2.0 * rep.bruno_partials[kappa], rel=1e-12)


def test_condition_sequence_gevrey_target_decreases():
    P = ScaleSequence.pow2()
    rep = condition_sequence(
        germ_omega_of_p(GOLDEN), P, ClassSpec.geometric(1.0),
        ClassSpec.gevrey(1.0), 120,
    )
    # subtrahend grows like log(d), so late values sink
    values = dict(rep.values)
    assert values[120] < values[12]
    assert rep.max_value < 2.0 * rep.bruno_partials[-1] + 0.1


def test_condition_sequence_requires_dominating_target():
    P = ScaleSequence.pow2()
    with pytest.raises(ValueError):
        condition_sequence(
            germ_omega_of_p(GOLDEN), P, ClassSpec.gevrey(1.0),
            ClassSpec.geometric(1.0), 60,
        )


def test_condition_sequence_bounded_verdict():
    P = ScaleSequence.pow2()
    cls = ClassSpec.gevrey(1.0)
    rep = condition_sequence(
        germ_omega_of_p(GOLDEN), P, cls, cls, 60,
        bound=2.0 * 4.0,
    )
    assert rep.bounded is True


def test_condition_partial_sums_are_the_bruno_loop():
    # the partial sums in summation order, as the loop below adds them
    P = ScaleSequence.pow2()
    omega_of_p = germ_omega_of_p(GOLDEN)
    cls = ClassSpec.gevrey(1.0)
    rep = condition_sequence(omega_of_p, P, cls, cls, 100)
    total, want = 0.0, []
    for m in range(P.kappa(100) + 1):
        total += math.log(1.0 / omega_of_p(P[m + 1])) / P[m]
        want.append(total)
    assert rep.bruno_partials == tuple(want)


def test_bruno_partial_sums_refuse_a_rational_rotation():
    # omega = 3/5: Omega(p) = 0 once p >= 5, which p_2 = 8 reaches at d >= 4
    P = ScaleSequence.pow2()
    cls = ClassSpec.gevrey(1.0)
    with pytest.raises(ResonantSpectrum, match="p_2 = 8"):
        condition_sequence(germ_omega_of_p(0.6), P, cls, cls, 5)
    # and a positive Omega at or below the tolerance 1e-12, not only zero
    with pytest.raises(ResonantSpectrum):
        condition_sequence(lambda p: 1e-13, P, cls, cls, 5)


# ---------------------------------------------------------------------------
# growth reports
# ---------------------------------------------------------------------------


def test_growth_report_pure_geometric():
    h = VectorSeries.from_coeffs(1, 30, {(k,): (3.0 ** -k,) for k in range(1, 31)})
    rep = growth_report(h)
    assert rep.radius == pytest.approx(3.0, rel=1e-9)
    assert rep.jackknife_spread < 1e-9
    assert not rep.divergent


def test_growth_report_scale_covariance(rng):
    # replacing f(z) by f(c z)/c rescales the radius by 1/c exactly
    spec = GermSpectrum.from_rotation((GOLDEN,))
    f = random_vector_series(rng, 1, 24, min_degree=2, max_degree=3)
    c = 2.0
    scaled = VectorSeries.from_coeffs(
        1, 24,
        {a: (vec[0] * c ** (sum(a) - 1),) for a, vec in f.coeff_items()},
    )
    r1 = growth_report(solve(Germ(spec, f), 24, "recursive").h)
    r2 = growth_report(solve(Germ(spec, scaled), 24, "recursive").h)
    assert r2.radius == pytest.approx(r1.radius / c, rel=1e-6)


def fit_window(h, window=0.5):
    """The degrees and log maxima growth_report fits."""
    per_degree = [(d, m) for d, m in h.per_degree_max().items() if m > 0]
    dmax = per_degree[-1][0]
    cut = dmax - max(2, int(round(window * (dmax - per_degree[0][0]))))
    fit = [(d, m) for d, m in per_degree if d >= cut]
    ds = np.array([d for d, _ in fit], dtype=float)
    return ds, np.array([math.log(m) for _, m in fit])


def polyfit_jackknife_spread(h, window=0.5):
    """The spread growth_report gives, from one np.polyfit per left-out degree."""
    ds, ys = fit_window(h, window)
    radii = [math.exp(-np.polyfit(np.delete(ds, i), np.delete(ys, i), 1)[0])
             for i in range(len(ds))]
    return (max(radii) - min(radii)) / np.median(radii)


def family_solutions(k):
    """h of the germ z -> lambda z (1 - z^k / k) at two degrees and three rotations."""
    for D in (200, 300):
        for omega in (GOLDEN, SILVER, 0.7548776662466927):
            spectrum = GermSpectrum.from_rotation((omega,))
            f = VectorSeries.from_coeffs(1, D, {(k + 1,): (-spectrum.lam[0] / k,)})
            yield solve(Germ(spectrum, f), D, "recursive").h


@pytest.mark.parametrize("k", [1, 2, 3])
def test_growth_report_spread_matches_the_polyfit_jackknife(k):
    for h in family_solutions(k):
        want = polyfit_jackknife_spread(h)
        assert growth_report(h).jackknife_spread == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fitted_lines_match_polyfit(k):
    cls = ClassSpec.gevrey(0.5)
    for h in family_solutions(k):
        slope, _ = np.polyfit(*fit_window(h), 1)
        assert growth_report(h).slope == pytest.approx(slope, rel=1e-12)
        per_degree = h.per_degree_max()
        ds = np.array([d for d in per_degree if d >= 1], dtype=float)
        ys = np.array([math.log(per_degree[d]) - cls.log_M(d) for d in per_degree if d >= 1])
        slope, intercept = np.polyfit(ds, ys, 1)
        fit = class_membership(h, cls)
        assert math.log(fit.B) == pytest.approx(slope, rel=1e-12)
        assert math.log(fit.A) == pytest.approx(intercept, rel=1e-12)


def test_majorant_sums_monotone(rng):
    h = random_vector_series(rng, 1, 12, min_degree=2, density=0.7)
    sums = majorant_partial_sums(h, 0.5)
    values = [s for _, s in sums]
    assert all(b >= a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# quadratic-type germ family
# ---------------------------------------------------------------------------


def test_germ_family_radius_golden():
    rep = germ_family_radius(1, GOLDEN, D=40)
    assert rep.radius > 0
    assert rep.jackknife_spread < 0.10
    assert math.isfinite(rep.empirical_gap)


def test_germ_family_periodicity():
    # the radius estimate is 1/k-periodic in the rotation number
    k = 2
    r1 = germ_family_radius(k, GOLDEN, D=30)
    r2 = germ_family_radius(k, GOLDEN + 1.0 / k, D=30)
    assert r2.radius == pytest.approx(r1.radius, rel=0.05)


def test_germ_family_rational_rotation_rejected():
    from treelin import DivisorBelowTolerance

    with pytest.raises(DivisorBelowTolerance):
        germ_family_radius(1, 0.5, D=12)


# ---------------------------------------------------------------------------
# planar field domain estimates
# ---------------------------------------------------------------------------


def worst_case_field(D, degree=3, omega=GOLDEN):
    coeffs = {
        alpha: (1.0, 1.0) for alpha in iter_indices(2, degree, 2)
    }
    f = VectorSeries.from_coeffs(2, D, coeffs)
    return VectorField(FieldSpectrum((-1.0, omega)), f)


def test_vf_domain_zero_field_flags_infinite_rho():
    vf = VectorField(FieldSpectrum((-1.0, GOLDEN)), VectorSeries.zero(2, 10))
    rep = vf_domain_estimate(vf, D=10)
    assert rep.rho == math.inf
    assert not rep.divergence_flag


def test_vf_domain_family_violation():
    coeffs = {(2, 0): (1.5, 0.0)}
    vf = VectorField(FieldSpectrum((-1.0, GOLDEN)),
                     VectorSeries.from_coeffs(2, 6, coeffs))
    with pytest.raises(FamilyViolation):
        vf_domain_estimate(vf, D=6)


def test_vf_domain_requires_normalized_spectrum():
    vf = VectorField(FieldSpectrum((1.0, GOLDEN)), VectorSeries.zero(2, 6))
    with pytest.raises(ValueError):
        vf_domain_estimate(vf, D=6)


def test_vf_domain_worst_case_golden():
    rep = vf_domain_estimate(worst_case_field(14), D=14)
    assert 0 < rep.rho < 1.0
    assert rep.d_estimate == pytest.approx(math.sqrt(2.0) * rep.rho)
    assert math.isfinite(rep.gap)


def test_vf_domain_majorant_divergence_flag():
    rep = vf_domain_estimate(worst_case_field(16, omega=LIOUVILLE), D=16,
                             divergence_threshold=1e4)
    values = [s for _, s in rep.majorant_sums]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert rep.divergence_flag
