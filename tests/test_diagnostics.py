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
    VectorField,
    VectorSeries,
    class_membership,
    condition_sequence,
    germ_family_radius,
    growth_report,
    majorant_partial_sums,
    solve_recursive_germ,
    validate_class,
    vf_domain_estimate,
)
from treelin.diagnostics import germ_omega_of_p, proof_bound_constant
from treelin.trees import ScaleSequence
from treelin.series import iter_indices

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
    lin = solve_recursive_germ(Germ(spec, f), 20)
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
    r1 = growth_report(solve_recursive_germ(Germ(spec, f), 24).h)
    r2 = growth_report(solve_recursive_germ(Germ(spec, scaled), 24).h)
    assert r2.radius == pytest.approx(r1.radius / c, rel=1e-6)


def polyfit_jackknife_spread(h, window=0.5):
    """The spread growth_report gives, from one np.polyfit per left-out degree."""
    per_degree = [(d, m) for d, m in h.per_degree_max().items() if m > 0]
    dmax = per_degree[-1][0]
    cut = dmax - max(2, int(round(window * (dmax - per_degree[0][0]))))
    fit = [(d, m) for d, m in per_degree if d >= cut]
    ds = np.array([d for d, _ in fit], dtype=float)
    ys = np.array([math.log(m) for _, m in fit])
    radii = [math.exp(-np.polyfit(np.delete(ds, i), np.delete(ys, i), 1)[0])
             for i in range(len(fit))]
    return (max(radii) - min(radii)) / np.median(radii)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_growth_report_spread_matches_the_polyfit_jackknife(k):
    for D in (200, 300):
        for omega in (GOLDEN, SILVER, 0.7548776662466927):
            spectrum = GermSpectrum.from_rotation((omega,))
            f = VectorSeries.from_coeffs(1, D, {(k + 1,): (-spectrum.lam[0] / k,)})
            h = solve_recursive_germ(Germ(spectrum, f), D).h
            want = polyfit_jackknife_spread(h)
            assert growth_report(h).jackknife_spread == pytest.approx(want, rel=1e-12)


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


def test_proof_bound_constant_is_finite(rng):
    spec = GermSpectrum.from_rotation((GOLDEN,))
    f = random_vector_series(rng, 1, 16, min_degree=2, max_degree=3)
    lin = solve_recursive_germ(Germ(spec, f), 16)
    P = ScaleSequence.pow2()
    c_hat = proof_bound_constant(lin.h, ClassSpec.geometric(1.0),
                                 germ_omega_of_p(GOLDEN), P)
    assert math.isfinite(c_hat) and c_hat > 0
    # by construction the bound shape holds for every coefficient at C = c_hat
    for comp in lin.h.components:
        for alpha, c in comp.items():
            d = sum(alpha)
            if d < 2:
                continue
            kappa = P.kappa(d)
            budget = 0.0
            for m in range(kappa + 1):
                budget += math.log(1.0 / germ_omega_of_p(GOLDEN)(P[m + 1])) / P[m]
            rhs = d * math.log(c_hat) + ClassSpec.geometric(1.0).log_M(d) + 2 * d * budget
            assert math.log(abs(c)) <= rhs + 1e-9


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
