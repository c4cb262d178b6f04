"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Two sub-criteria concerning the constant sum(10^-k!) are implemented
literally and marked xfail: that constant satisfies the Bruno condition
(q_(k+1) ~ q_k^(k+1), so log(q_(k+1))/q_k -> 0 summably), which makes the
stated divergence thresholds unreachable; the measured values are printed
and the working divergence machinery is demonstrated elsewhere on explicit
non-Bruno quotient sequences.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from treelin import (
    ClassSpec,
    FieldSpectrum,
    Germ,
    GermSpectrum,
    VectorField,
    VectorSeries,
    apply_inverse_D,
    bruno_series_1d,
    classical_lagrange_1d,
    condition_sequence,
    continued_fraction,
    divisor_table,
    count_scale,
    counting_bound,
    enumerate_forest,
    enumerate_labeled,
    fixed_point_inversion,
    germ_family_radius,
    omega_frac,
    omega_hat,
    shift_expand,
    solve,
    tree_value,
    validate_class,
    vf_domain_estimate,
)
from treelin.diagnostics import germ_omega_of_p
from treelin.families import SeriesFamily, formal_derivative
from treelin.indices import iter_indices
from treelin.series import ScalarSeries
from treelin.trees import ScaleSequence

from conftest import (
    GOLDEN,
    SILVER,
    random_dyadic_vector_series,
    random_vector_series,
)

LIOUVILLE_EXACT = sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, 5))
LIOUVILLE = float(LIOUVILLE_EXACT)


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def coeffwise_close(a: VectorSeries, b: VectorSeries, rel: float) -> float:
    """Largest per-coefficient relative deviation (absolute floor 1e-12)."""
    worst = 0.0
    for alpha in a.support() | b.support():
        for x, y in zip(a.coefficient(alpha), b.coefficient(alpha)):
            gap = abs(x - y)
            scale = max(abs(x), abs(y), 1e-3)
            worst = max(worst, gap / scale if gap > 1e-12 else 0.0)
    return worst


# ---------------------------------------------------------------------------
# 1. oracle equivalence, germs
# ---------------------------------------------------------------------------


def test_criterion_01_oracle_equivalence_germ():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    spec1 = GermSpectrum.from_rotation((GOLDEN,))
    for _ in range(50):
        f = random_vector_series(rng, 1, 8, min_degree=2, max_degree=4)
        germ = Germ(spec1, f)
        rec = solve(germ, 8, "recursive")
        tree = solve(germ, 8, "tree")
        worst = max(worst, coeffwise_close(rec.h, tree.h, 1e-9))
    spec2 = GermSpectrum.from_rotation((GOLDEN, SILVER))
    for _ in range(50):
        f = random_vector_series(rng, 2, 5, min_degree=2, max_degree=4)
        germ = Germ(spec2, f)
        rec = solve(germ, 5, "recursive")
        tree = solve(germ, 5, "tree")
        worst = max(worst, coeffwise_close(rec.h, tree.h, 1e-9))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, ok, f"50+50 germs, worst coefficient deviation {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. oracle equivalence, fields
# ---------------------------------------------------------------------------


def test_criterion_02_oracle_equivalence_field():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        f = random_vector_series(rng, 1, 8, min_degree=2, max_degree=4)
        vf = VectorField(FieldSpectrum((1.0,)), f)
        rec = solve(vf, 8, "recursive")
        tree = solve(vf, 8, "tree")
        worst = max(worst, coeffwise_close(rec.h, tree.h, 1e-9))
    spec = FieldSpectrum((-1.0, GOLDEN))
    for _ in range(50):
        f = random_vector_series(rng, 2, 5, min_degree=2, max_degree=4)
        vf = VectorField(spec, f)
        rec = solve(vf, 5, "recursive")
        tree = solve(vf, 5, "tree")
        worst = max(worst, coeffwise_close(rec.h, tree.h, 1e-9))
    report(2, worst <= 1e-9,
           f"50+50 fields incl. spectrum (-1, golden), worst deviation {worst:.2e}")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 3. classical one-dimensional identity
# ---------------------------------------------------------------------------


def _tree_orders_for(G: ScalarSeries, n_orders: int):
    fam = SeriesFamily(1, G.trunc, G.trunc, {
        (t,): VectorSeries([formal_derivative(G, (t,))]) for t in range(G.trunc + 1)
    })
    out = []
    for N in range(1, n_orders + 1):
        total = VectorSeries.zero(1, G.trunc)
        for theta in enumerate_forest(N):
            total = total + tree_value(theta, lambda g: g, fam, 1.0)
        out.append(total.components[0])
    return out


def test_criterion_03_classical_identity():
    D, compare_through = 20, 8
    sine = ScalarSeries(1, D, {
        (2 * m + 1,): (-1.0) ** m / math.factorial(2 * m + 1)
        for m in range((D - 1) // 2 + 1)
    })
    poly = ScalarSeries(1, D, {(0,): 1.0, (1,): 1.0, (2,): 2.0, (3,): -1.0})
    worst = 0.0
    for G in (sine, poly):
        table = classical_lagrange_1d(G, 6)
        tree_orders = _tree_orders_for(G, 6)
        for N in range(1, 7):
            for m in range(compare_through + 1):
                worst = max(worst, abs(
                    tree_orders[N - 1].get((m,)) - table.orders[N - 1].get((m,))
                ))
    report(3, worst <= 1e-10,
           f"tree sums vs derivative formula, N <= 6, worst gap {worst:.2e}")
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# 4. Kepler fixture
# ---------------------------------------------------------------------------


def _kepler_family(D: int) -> SeriesFamily:
    sin_e = {
        (2 * m + 1, 1): (-1.0) ** m / math.factorial(2 * m + 1)
        for m in range((D - 2) // 2 + 1)
    }
    base = VectorSeries.from_coeffs(2, D, {a: (c, 0.0) for a, c in sin_e.items()})
    return shift_expand(base)


def _sympy_kepler(e_order: int, m_order: int) -> dict:
    import sympy as sp

    M, e = sp.symbols("M e")
    expr = M
    for _ in range(e_order + 1):
        expr = M + e * sp.sin(expr)
        expr = sp.expand(sp.series(expr, e, 0, e_order + 1).removeO())
    h = sp.expand(expr - M)
    out = {}
    for k in range(1, e_order + 1):
        poly = sp.expand(sp.series(h.coeff(e, k), M, 0, m_order + 1).removeO())
        for m in range(m_order + 1):
            c = complex(poly.coeff(M, m))
            if c != 0:
                out[(m, k)] = c
    return out


def test_criterion_04_kepler():
    D = 10
    H = fixed_point_inversion(
        lambda g: g, _kepler_family(D), 1.0, VectorSeries.zero(2, D), D
    )
    oracle = _sympy_kepler(6, D - 1)
    worst = 0.0
    for (m, k), c in oracle.items():
        if m + k <= D:
            worst = max(worst, abs(H.coefficient((m, k))[0] - c))
    for alpha, vec in H.coeff_items():
        m, k = alpha
        if k <= 6:
            worst = max(worst, abs(vec[0] - oracle.get((m, k), 0.0)))
    # e^2 row is sin(M) cos(M) = sin(2M)/2
    e2_worst = 0.0
    for m in range(D - 2):
        expected = 0.0
        if m % 2 == 1:
            mm = (m - 1) // 2
            expected = (-1.0) ** mm * 2.0 ** m / (2.0 * math.factorial(m))
        e2_worst = max(e2_worst, abs(H.coefficient((m, 2))[0] - expected))
    ok = worst <= 1e-10 and e2_worst <= 1e-10
    report(4, ok, f"reversion through e^6: worst {worst:.2e}, "
                  f"e^2 row vs sin*cos {e2_worst:.2e}")
    assert worst <= 1e-10 and e2_worst <= 1e-10


# ---------------------------------------------------------------------------
# 5. forest counts
# ---------------------------------------------------------------------------


def test_criterion_05_forest_counts():
    counts = [len(enumerate_forest(N)) for N in range(1, 8)]
    ok = counts == [1, 1, 2, 5, 14, 42, 132]
    report(5, ok, f"|T_N| for N=1..7: {counts}")
    assert ok


# ---------------------------------------------------------------------------
# 6. counting lemma, exhaustive
# ---------------------------------------------------------------------------


def _labeled_pool(n, support_degree, alpha_max):
    support = frozenset(iter_indices(n, support_degree, 2))
    for alpha in iter_indices(n, alpha_max, 2):
        for j in range(n):
            for N in range(1, sum(alpha)):
                yield from enumerate_labeled(N, alpha, j, support, n)


def test_criterion_06_counting_lemma():
    P = ScaleSequence.pow2()
    violations = 0
    total = 0
    for variant, omega in (("germ", (GOLDEN, SILVER)), ("field", (-1.0, GOLDEN))):
        for theta in _labeled_pool(2, 3, 5):
            total += 1
            for k in range(4):
                if count_scale(theta, k, omega, P, variant) > counting_bound(theta, k, P):
                    violations += 1
    ok = violations == 0
    report(6, ok, f"{total} labeled-tree checks (germ and field scales), "
                  f"{violations} violations")
    assert ok and total > 1000


# ---------------------------------------------------------------------------
# 7. separation properties
# ---------------------------------------------------------------------------


def _separation_violations(omega, variant, instances, rng):
    P = ScaleSequence.pow2()
    w = np.array([complex(x) for x in omega])
    ks = (0, 1, 2, 3)
    thresholds = {
        k: 0.5 * (omega_frac(tuple(float(x.real) for x in w), P[k])
                  if variant == "germ" else omega_hat(tuple(omega), P[k]))
        for k in ks
    }
    # candidate pool of nu_1 with Phi = 1, per k
    grid = np.array(list(product(range(-60, 61), repeat=2)))
    grid = grid[np.any(grid != 0, axis=1)]
    dots = grid @ w
    vals = (np.abs(dots - np.round(dots.real)) if variant == "germ"
            else np.abs(dots))
    pools = {k: grid[vals < thresholds[k]] for k in ks}
    shift_cache = {}
    for k in ks:
        box = np.array([
            nu for nu in product(range(-P[k], P[k] + 1), repeat=2)
            if any(nu) and abs(nu[0]) + abs(nu[1]) <= P[k]
        ])
        shift_cache[k] = box
    checked = 0
    violations = 0
    while checked < instances:
        k = int(rng.integers(0, len(ks)))
        pool = pools[ks[k]]
        if len(pool) == 0:
            continue
        nu1 = pool[int(rng.integers(0, len(pool)))]
        box = shift_cache[ks[k]]
        diffs = nu1[None, :] - box
        nz = np.any(diffs != 0, axis=1)
        d = diffs[nz] @ w
        x = (np.abs(d - np.round(d.real)) if variant == "germ" else np.abs(d))
        violations += int(np.count_nonzero(x < thresholds[ks[k]]))
        checked += 1
    return checked, violations


def test_criterion_07_separation():
    rng = np.random.default_rng(77)
    total_checked = 0
    total_violations = 0
    for variant, omega in (("germ", (GOLDEN, SILVER)), ("field", (-1.0, GOLDEN))):
        checked, violations = _separation_violations(omega, variant, 5000, rng)
        total_checked += checked
        total_violations += violations
    ok = total_violations == 0 and total_checked == 10000
    report(7, ok, f"{total_checked} randomized instances "
                  f"(germ and field indicators), {total_violations} violations")
    assert ok


# ---------------------------------------------------------------------------
# 8. Bruno arithmetic
# ---------------------------------------------------------------------------


def test_criterion_08a_bruno_golden():
    cf = continued_fraction(GOLDEN, 13)
    sums = bruno_series_1d(cf, 10)
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    expected = 0.0
    for k in range(11):
        expected += math.log(fib[k + 1]) / fib[k]
    gap = abs(sums[-1] - expected)
    report(8, gap <= 1e-6, f"golden partial sums vs Fibonacci oracle, gap {gap:.2e}")
    assert gap <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="sum(10^-k!) is a Bruno number: q_(k+1) ~ q_k^(k+1) gives "
           "log(q_(k+1))/q_k -> 0 and partial sums ~ 2.8, so they cannot "
           "exceed 100 at any K; the stated divergence is unattainable",
)
def test_criterion_08b_bruno_liouville_divergence():
    cf = continued_fraction(LIOUVILLE_EXACT, 12)
    sums = bruno_series_1d(cf, 8)
    report(8, sums[-1] > 100.0,
           f"sum(10^-k!) partial sums S_8 = {sums[-1]:.3f} (claim: > 100)")
    assert sums[-1] > 100.0


# ---------------------------------------------------------------------------
# 9. per-tree label identity
# ---------------------------------------------------------------------------


def test_criterion_09_per_tree_identity():
    rng = np.random.default_rng(9)
    D = 6
    spec = GermSpectrum.from_rotation((GOLDEN,))
    f = random_vector_series(rng, 1, D, min_degree=2, max_degree=3)
    germ = Germ(spec, f)
    op = partial(apply_inverse_D, divisor_table(spec, D))
    fam = shift_expand(f)
    support = frozenset(f.support())
    worst = 0.0
    for N in range(1, 5):
        for theta_m in enumerate_forest(N):
            coeffs = {}
            for alpha in iter_indices(1, D, 2):
                total = 0j
                for t in enumerate_labeled(N, alpha, 0, support, 1):
                    if t.m != theta_m or t.binom_product == 0:
                        continue
                    val = complex(t.weight * t.binom_product)
                    for (lab, ax), nu in zip(
                        zip(t.node_labels, t.line_axes), t.momenta
                    ):
                        val *= f.coefficient(lab)[ax] / spec.divisor(nu, ax)
                    total += val
                if total != 0:
                    coeffs[alpha] = (total,)
            lhs = VectorSeries.from_coeffs(1, D, coeffs)
            rhs = tree_value(theta_m, op, fam, 1.0)
            worst = max(worst, coeffwise_close(lhs, rhs, 1e-9))
    report(9, worst <= 1e-9,
           f"label sums vs recursive tree values, N <= 4, worst {worst:.2e}")
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 10. ultrametric suite
# ---------------------------------------------------------------------------


def test_criterion_10_ultrametric_suite():
    rng = np.random.default_rng(10)
    table = divisor_table(GermSpectrum.from_rotation((GOLDEN, SILVER)), 6)
    violations = 0

    # triangle inequality with equality off the diagonal: 1000 instances
    for _ in range(1000):
        f = random_vector_series(rng, 1, 6, min_degree=int(rng.integers(0, 4)),
                                 density=0.5)
        g = random_vector_series(rng, 1, 6, min_degree=int(rng.integers(0, 4)),
                                 density=0.5)
        s = f + g
        if s.znorm() > max(f.znorm(), g.znorm()) + 1e-15:
            violations += 1
        if f.znorm() != g.znorm() and s.znorm() != max(f.znorm(), g.znorm()):
            violations += 1

    # valuation additivity: 1000 instances
    for _ in range(1000):
        f = random_vector_series(rng, 2, 8, min_degree=int(rng.integers(1, 4)),
                                 max_degree=5, density=0.6)
        g = random_vector_series(rng, 2, 8, min_degree=int(rng.integers(1, 4)),
                                 max_degree=5, density=0.6)
        prod = f.components[0].multiply(g.components[1])
        va, vb = f.components[0].valuation(), g.components[1].valuation()
        if prod.is_zero():
            continue
        if va + vb <= 8 and prod.valuation() != va + vb:
            violations += 1

    # valuation preservation under the inverse divisor operator: 1000
    for _ in range(1000):
        g = random_vector_series(rng, 2, 6, min_degree=2, density=0.5)
        if apply_inverse_D(table, g).valuation() != g.valuation():
            violations += 1

    # shift-family norms: 1000 instances with a dense degree-2 stratum
    for _ in range(1000):
        f = random_vector_series(rng, 2, 5, min_degree=2, density=0.5)
        fam = shift_expand(f)
        nf = f.znorm()
        if fam.coeff((0, 0)).znorm() != nf:
            violations += 1
        axis_norms = [fam.coeff((1, 0)).znorm(), fam.coeff((0, 1)).znorm()]
        if max(axis_norms) != 2 * nf or any(v > 2 * nf for v in axis_norms):
            violations += 1
        for beta in iter_indices(2, 4, 2):
            if fam.coeff(beta).znorm() > 4 * nf:
                violations += 1

    # Taylor inequalities on dyadic families: 1000 instances
    checked = 0
    while checked < 1000:
        def fam_of(density):
            coeffs = {}
            for beta in iter_indices(1, 3):
                if rng.uniform() <= density:
                    coeffs[beta] = random_dyadic_vector_series(
                        rng, 1, 4, max_degree=4, density=0.4
                    )
            return SeriesFamily(1, 4, 3, coeffs)

        F, G, H = fam_of(0.7), fam_of(0.6), fam_of(0.6)
        s = 0.5
        r = max(G.weighted_norm(s), H.weighted_norm(s))
        if r == 0 or F.is_zero():
            continue
        FG = F.compose(G)
        FGH = F.compose(G + H)
        if (FGH - FG).weighted_norm(s) > F.weighted_norm(r) / r * H.weighted_norm(s) * (1 + 1e-12):
            violations += 1
        prod = {}
        DF_G = F.delta((1,)).compose(G)
        for b1, g1 in DF_G.items():
            for b2, g2 in H.items():
                if sum(b1) + sum(b2) > 3:
                    continue
                key = (b1[0] + b2[0],)
                contrib = g1.mul_scalar_series(g2.components[0])
                prod[key] = prod[key] + contrib if key in prod else contrib
        rem = FGH - FG - SeriesFamily(1, 4, 3, prod)
        if rem.weighted_norm(s) > F.weighted_norm(r) / r ** 2 * H.weighted_norm(s) ** 2 * (1 + 1e-12):
            violations += 1
        checked += 1

    report(10, violations == 0,
           f"5 x 1000 randomized ultrametric checks, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# 11. class machinery
# ---------------------------------------------------------------------------


def test_criterion_11a_class_machinery():
    P = ScaleSequence.pow2()
    gevrey_ok = all(
        validate_class(ClassSpec.gevrey(s), 40).ok for s in (0.5, 1.0, 2.0)
    )
    cls = ClassSpec.gevrey(1.0)
    golden = condition_sequence(germ_omega_of_p(GOLDEN), P, cls, cls, 200)
    # the full Bruno total, converged well past kappa(200)
    total = 0.0
    for m in range(12):
        total += math.log(1.0 / omega_frac((GOLDEN,), P[m + 1])) / P[m]
    bound = 2.0 * total + 0.1
    golden_ok = golden.max_value <= bound
    ok = gevrey_ok and golden_ok
    report(11, ok, f"Gevrey 1/2,1,2 hypotheses pass; golden condition max "
                   f"{golden.max_value:.3f} <= {bound:.3f}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="sum(10^-k!) satisfies the Bruno condition, so its condition "
           "sequence is bounded (~5.8 through d = 200) and cannot be "
           "reported unbounded; the stated expectation is unattainable",
)
def test_criterion_11b_liouville_condition_unbounded():
    P = ScaleSequence.pow2()
    cls = ClassSpec.gevrey(1.0)
    rep = condition_sequence(germ_omega_of_p(LIOUVILLE), P, cls, cls, 200)
    report(11, rep.max_value > 100.0,
           f"sum(10^-k!) condition max through d=200 is {rep.max_value:.3f} "
           f"(claim: unbounded)")
    assert rep.max_value > 100.0


# ---------------------------------------------------------------------------
# 12. growth diagnostics
# ---------------------------------------------------------------------------


def test_criterion_12_growth_diagnostics():
    rep = germ_family_radius(1, GOLDEN, D=40)
    radius_ok = rep.radius > 0 and rep.jackknife_spread < 0.10

    coeffs = {a: (1.0, 1.0) for a in iter_indices(2, 3, 2)}
    vf = VectorField(FieldSpectrum((-1.0, LIOUVILLE)),
                     VectorSeries.from_coeffs(2, 20, coeffs))
    domain = vf_domain_estimate(vf, D=20, majorant_r=0.5,
                                divergence_threshold=1e6)
    values = [s for _, s in domain.majorant_sums]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    flag_ok = domain.divergence_flag and monotone and values[-1] > 1e6
    ok = radius_ok and flag_ok
    report(12, ok, f"quadratic-germ radius {rep.radius:.4f} "
                   f"(spread {rep.jackknife_spread:.2%}); majorant at r=0.5 "
                   f"reaches {values[-1]:.2e} monotonically")
    assert radius_ok
    assert flag_ok


# ---------------------------------------------------------------------------
# 13. determinism
# ---------------------------------------------------------------------------


def _run_cli(args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "treelin.cli", *args],
        capture_output=True, env=env, cwd=cwd, timeout=300,
    )
    return proc.returncode, proc.stdout


def test_criterion_13_determinism(tmp_path):
    problem = tmp_path / "problem.json"
    code, _ = _run_cli([
        "fixture", "germ", "--n", "2", "--degree-f", "3", "--trunc", "5",
        "--seed", "99", "--out", str(problem),
    ])
    assert code == 0
    outputs = []
    for threads in ("1", "2", "1", "2"):
        code, out = _run_cli(
            ["linearize", "germ", "--input", str(problem), "--degree", "5",
             "--method", "all", "--verify"],
            env_extra={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert code == 0
        outputs.append(out)
    identical = all(o == outputs[0] for o in outputs)
    code, bruno1 = _run_cli(["bruno", "--omega", f"{GOLDEN:.10f}", "--terms", "10"])
    _, bruno2 = _run_cli(["bruno", "--omega", f"{GOLDEN:.10f}", "--terms", "10"])
    identical = identical and bruno1 == bruno2 and code == 0
    report(13, identical,
           f"byte-identical outputs across 4 runs, OPENBLAS_NUM_THREADS and "
           f"OMP_NUM_THREADS 1/2/1/2 "
           f"({len(outputs[0])} bytes)")
    assert identical
