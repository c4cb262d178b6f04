"""Spectra, divisor operators, Omega minima, continued fractions, Bruno sums."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from treelin import (
    ContinuedFraction,
    DivisorBelowTolerance,
    FieldSpectrum,
    GermSpectrum,
    RationalDetected,
    ResonantSpectrum,
    ScaleSequence,
    TruncationMismatch,
    VectorSeries,
    apply_forward_D,
    apply_inverse_D,
    bruno_proxy,
    bruno_series_1d,
    bruno_sum,
    continued_fraction,
    divisor_table,
    frac_distance,
    omega_frac,
    omega_hat,
    omega_tilde,
)
from treelin.indices import unit_index
from treelin.series import ScalarSeries

from conftest import GOLDEN, SILVER, assert_series_close, random_vector_series


# ---------------------------------------------------------------------------
# spectra and resonance
# ---------------------------------------------------------------------------


def test_germ_spectrum_validation():
    with pytest.raises(ValueError):
        GermSpectrum((1.0, 1.0))
    with pytest.raises(ValueError):
        GermSpectrum((0.0, 1.0))


def test_rotation_spectrum_stable_powers():
    spec = GermSpectrum.from_rotation((GOLDEN,))
    # |lambda^nu - lambda| = 2 |sin(pi (nu - 1) g)|
    for nu in range(-5, 9):
        direct = abs(spec.power((nu,)) - spec.lam[0])
        stable = spec.divisor_modulus((nu,), 0)
        assert abs(direct - stable) < 1e-12


def test_rotation_divisor_is_stable_near_resonance():
    # x = 40 w_1 - w_2 - 12 is about -1e-11, so lambda^nu and lambda_2 nearly cancel
    spec = GermSpectrum.from_rotation((0.31, 0.4 + 1e-11))
    nu, j = (40, 0), 1
    modulus = spec.divisor_modulus(nu, j)
    assert 1e-11 < modulus < 1e-10
    assert abs(abs(spec.divisor(nu, j)) - modulus) <= 1e-12 * modulus


# ---------------------------------------------------------------------------
# divisor operators
# ---------------------------------------------------------------------------


def test_apply_inverse_examples():
    spec = GermSpectrum((2.0,))
    g = VectorSeries.from_coeffs(1, 4, {(2,): (1.0,)})
    out = apply_inverse_D(divisor_table(spec, 4), g)
    assert abs(out.coefficient((2,))[0] - 0.5) < 1e-15  # divisor 4 - 2 = 2

    fspec = FieldSpectrum((1.0,))
    g3 = VectorSeries.from_coeffs(1, 4, {(3,): (1.0,)})
    out = apply_inverse_D(divisor_table(fspec, 4), g3)
    assert abs(out.coefficient((3,))[0] - 0.5) < 1e-15  # divisor 3 - 1 = 2


def test_apply_inverse_requires_valuation_two():
    spec = GermSpectrum((2.0,))
    g = VectorSeries.from_coeffs(1, 4, {(1,): (1.0,)})
    with pytest.raises(ValueError):
        apply_inverse_D(divisor_table(spec, 4), g)


def test_divisor_operators_refuse_a_table_shorter_than_the_series():
    g = VectorSeries.from_coeffs(1, 4, {(2,): (1.0,)})
    table = divisor_table(GermSpectrum((2.0,)), 3)
    with pytest.raises(TruncationMismatch):
        apply_inverse_D(table, g)
    with pytest.raises(TruncationMismatch):
        apply_forward_D(table, g)


def test_apply_inverse_raises_on_resonance():
    spec = GermSpectrum((4.0, 2.0))  # resonant at (0, 2), axis 0
    g = VectorSeries.from_coeffs(2, 4, {(0, 2): (1.0, 1.0)})
    with pytest.raises(DivisorBelowTolerance) as info:
        apply_inverse_D(divisor_table(spec, 4), g)
    assert info.value.index == (0, 2)
    assert info.value.axis == 0


def test_inverse_preserves_valuation_and_round_trips(rng):
    table = divisor_table(GermSpectrum.from_rotation((GOLDEN, SILVER)), 6)
    for _ in range(25):
        g = random_vector_series(rng, 2, 6, min_degree=2, density=0.6)
        out = apply_inverse_D(table, g)
        assert out.valuation() == g.valuation()
        assert_series_close(apply_forward_D(table, out), g, rel=1e-12)
        # additivity and scalar commutation
        g2 = random_vector_series(rng, 2, 6, min_degree=2, density=0.6)
        lhs = apply_inverse_D(table, g + g2)
        rhs = apply_inverse_D(table, g) + apply_inverse_D(table, g2)
        assert_series_close(lhs, rhs, rel=1e-12)
        assert_series_close(
            apply_inverse_D(table, g.scale(2.5j)),
            apply_inverse_D(table, g).scale(2.5j),
            rel=1e-12,
        )


def test_forward_operator_matches_composition_definition(rng):
    # D g = g(A z) - A g(z), checked against the composition, on rotation
    # spectra and on eigenvalues off the unit circle; verify_conjugacy
    # multiplies by this operator for germs and fields alike
    for n, D in ((1, 14), (2, 9), (3, 7)):
        rotation = GermSpectrum.from_rotation((GOLDEN, SILVER, 1.0 / math.e)[:n])
        for spec in (rotation, GermSpectrum((0.5, -1.25 + 0.5j, 1.5j)[:n])):
            g = random_vector_series(rng, n, D, min_degree=1)
            Az = VectorSeries([
                ScalarSeries.monomial(n, D, unit_index(n, j), spec.lam[j]) for j in range(n)
            ])
            composed = g.compose(Az) - VectorSeries(
                [g.components[j].scale(spec.lam[j]) for j in range(n)]
            )
            gap = (apply_forward_D(divisor_table(spec, D), g) - composed).max_abs()
            assert gap <= 1e-13 * composed.max_abs(), (n, spec)


def test_divisor_table_of_a_smaller_truncation_is_a_prefix():
    # the prefix of a larger table is, bitwise, the table of the smaller
    # truncation and the divisors taken one by one; so the fixed point's
    # steps may divide by prefixes of the solve's one table
    from treelin.series import graded_indices

    for spec in (GermSpectrum.from_rotation((GOLDEN, SILVER)), FieldSpectrum((-1.0, GOLDEN))):
        large = divisor_table(spec, 9)
        for D in (0, 3, 9):
            prefix = large.truncate(D)
            fresh = np.array([[spec.divisor(a, j) for a in graded_indices(2, D)] for j in range(2)])
            assert prefix.trunc == D
            assert prefix.to_array().tobytes() == fresh.tobytes()
            assert divisor_table(spec, D).to_array().tobytes() == fresh.tobytes()


# ---------------------------------------------------------------------------
# Omega minima
# ---------------------------------------------------------------------------


def test_omega_tilde_realizable_example():
    # lambda = 2, p = 3: only nu = 2 is realizable, |4 - 2| = 2
    spec = GermSpectrum((2.0,))
    assert omega_tilde(spec, 3) == pytest.approx(2.0)
    # the literal index set includes nu = 1, where the divisor vanishes
    assert omega_tilde(spec, 3, mode="full") == pytest.approx(0.0)


def test_omega_tilde_brute_force_and_monotone():
    spec = GermSpectrum.from_rotation((GOLDEN,))
    lam = spec.lam[0]

    def oracle(p):
        best = math.inf
        for nu in range(-(p - 1), p):
            if nu >= 2:
                best = min(best, abs(lam ** nu - lam))
        return best

    values = [omega_tilde(spec, p) for p in range(2, 9)]
    assert values == pytest.approx([oracle(p) for p in range(2, 9)])
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_omega_frac_examples():
    # golden mean, p = 2: min({g}, {2g}) = {2g}
    assert omega_frac((GOLDEN,), 2) == pytest.approx(frac_distance(2 * GOLDEN))
    assert omega_frac((GOLDEN,), 1) == pytest.approx(frac_distance(GOLDEN))
    # rational: resonance shows up as an exact zero
    assert omega_frac((0.5,), 2) == pytest.approx(0.0)


def test_omega_frac_convergent_denominators():
    cf = continued_fraction(GOLDEN, 12)
    for q in cf.q[1:8]:
        assert omega_frac((GOLDEN,), q) <= frac_distance(q * GOLDEN) + 1e-15


def test_omega_hat_examples():
    # one dimension, omega = 1: candidates are -1 and 1..p, all values >= 1
    assert omega_hat((1.0,), 5) == pytest.approx(1.0)
    # oracle scan for the planar spectrum
    omega = (-1.0, GOLDEN)

    def oracle(p):
        best = math.inf
        for a1 in range(-1, p + 1):
            for a2 in range(-1, p + 1):
                if min(a1, a2) < 0 and a1 + a2 < max(a1, a2):
                    # at most one -1: reject two negatives
                    if a1 == -1 and a2 == -1:
                        continue
                v = abs(-a1 + GOLDEN * a2)
                if 0 < abs(a1) + abs(a2) <= p and v > 1e-12:
                    best = min(best, v)
        return best

    for p in range(2, 9):
        assert omega_hat(omega, p) == pytest.approx(oracle(p))
    vals = [omega_hat(omega, p) for p in range(2, 12)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_sine_divisor_equivalence(rng):
    # for |lambda_j| = 1: 4 {x} <= |lambda^nu - lambda_j| <= 2 pi {x}
    spec = GermSpectrum.from_rotation((GOLDEN, SILVER))
    rot = spec.rotation
    for _ in range(300):
        nu = tuple(int(x) for x in rng.integers(-12, 13, size=2))
        if not any(nu):
            continue
        for j in range(2):
            x = frac_distance(sum(v * w for v, w in zip(nu, rot)) - rot[j])
            d = spec.divisor_modulus(nu, j)
            assert 4 * x <= d + 1e-12
            assert d <= 2 * math.pi * x + 1e-12


# ---------------------------------------------------------------------------
# continued fractions
# ---------------------------------------------------------------------------


def test_continued_fraction_golden():
    cf = continued_fraction(GOLDEN, 10)
    assert cf.quotients == (1,) * 10
    assert cf.q[:10] == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55)
    # recursion invariant
    for k in range(2, len(cf.q)):
        assert cf.q[k] == cf.quotients[k - 1] * cf.q[k - 1] + cf.q[k - 2]


def test_continued_fraction_rational_detected():
    with pytest.raises(RationalDetected) as info:
        continued_fraction(0.5, 5)
    assert info.value.partial.quotients == (2,)
    with pytest.raises(RationalDetected):
        continued_fraction(Fraction(3, 7), 10)


def test_continued_fraction_pi():
    cf = continued_fraction(math.pi, 4)
    assert cf.quotients[:4] == (7, 15, 1, 292)


def test_bruno_series_golden_fibonacci():
    cf = continued_fraction(GOLDEN, 12)
    sums = bruno_series_1d(cf, 5)
    fib = [1, 1, 2, 3, 5, 8, 13]
    expected = []
    total = 0.0
    for k in range(6):
        total += math.log(fib[k + 1]) / fib[k]
        expected.append(total)
    assert sums == pytest.approx(expected, abs=1e-9)
    # first term vanishes: q_1 / q_0 = 1/1
    assert sums[0] == pytest.approx(0.0)


def test_bruno_series_divergence_on_non_bruno_quotients():
    # non-Bruno numbers have log(a_(k+1)) >~ q_k infinitely often; one such
    # entry already pushes the partial sums past any bound.  Convergents are
    # exact big integers, so the huge quotient is handled faithfully.
    huge = int(math.exp(120.0)) + 1
    cf = ContinuedFraction.from_quotients([1, huge, 1, 1])
    sums = bruno_series_1d(cf, 3)
    assert sums[0] == pytest.approx(0.0)      # log(q_1)/q_0 = log(1)
    assert sums[1] > 100.0                    # log(a_2 q_1 + q_0) / q_1
    # later terms are log(q)/q-small against the huge denominator
    assert sums[3] - sums[1] < 1e-45


def test_liouville_constant_is_actually_bruno_summable():
    # sum of 10^(-k!) is Liouville but its Bruno series stays small:
    # q_(k+1) ~ q_k^(k+1) so log(q_(k+1))/q_k -> 0 fast
    omega = sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, 5))
    cf = continued_fraction(omega, 12)
    sums = bruno_series_1d(cf, 10)
    assert 2.0 < sums[-1] < 3.5
    # ... and the partial sums have visibly flattened
    assert sums[-1] - sums[5] < 0.01


# ---------------------------------------------------------------------------
# bruno_sum over Omega tables
# ---------------------------------------------------------------------------


def test_bruno_sum_constant_omega():
    P = ScaleSequence.pow2()
    sums = bruno_sum(lambda p: 1.0, P, 6)
    assert sums == pytest.approx([0.0] * 7)


def test_bruno_sum_monotone_golden():
    P = ScaleSequence.pow2()
    sums = bruno_sum(lambda p: omega_frac((GOLDEN,), p), P, 10)
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    # plateaus: late increments are tiny for a Bruno rotation number
    assert sums[-1] - sums[-3] < 0.05


def test_bruno_sum_resonant_flagged():
    P = ScaleSequence.pow2()
    with pytest.raises(ResonantSpectrum):
        bruno_sum(lambda p: omega_frac((0.5,), p), P, 4)


def test_denser_sequence_keeps_golden_convergent():
    dense = ScaleSequence.from_table(list(range(2, 70)))
    sums = bruno_sum(lambda p: omega_frac((GOLDEN,), p), dense, 60)
    assert sums[-1] < 25.0  # finite, no blow-up within the tested range


def test_bruno_proxy_handles_rationals():
    # the expansion of 1/2 stops at one quotient; the proxy sums what exists
    assert bruno_proxy(0.5, 10) == pytest.approx(math.log(2.0))
