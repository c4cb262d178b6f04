"""Tree enumeration, labeling, scales and the counting machinery."""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from treelin import (
    FieldSpectrum,
    GermSpectrum,
    ScaleSequence,
    count_scale,
    counting_bound,
    enumerate_forest,
    enumerate_labeled,
    scale_of_line,
    standard_decomposition,
)
from treelin.bruno import frac_distance, omega_frac, omega_hat, phi_counting
from treelin.divisors import RESONANCE_TOL, divisor_table
from treelin.indices import abs_degree, graded_key, iter_indices, signed_degree
from treelin.trees import children_lists, is_valid_m
from treelin.treesum import LinePolynomials

from conftest import GOLDEN, SILVER


# ---------------------------------------------------------------------------
# forest enumeration
# ---------------------------------------------------------------------------


def brute_force_forest(N):
    """Oracle: scan every vector in {0..N-1}^N against the two constraints."""
    out = []
    for m in product(range(N), repeat=N):
        if sum(m) == N - 1 and all(sum(m[j:]) <= N - 1 - j for j in range(N)):
            out.append(m)
    return sorted(out)


def test_forest_base_cases():
    assert enumerate_forest(1) == [(0,)]
    assert enumerate_forest(3) == [(1, 1, 0), (2, 0, 0)]


@pytest.mark.parametrize("N", range(1, 8))
def test_forest_matches_brute_force_and_catalan(N):
    forest = enumerate_forest(N)
    assert forest == brute_force_forest(N)
    assert len(forest) == math.comb(2 * N - 2, N - 1) // N  # Catalan(N - 1)
    assert all(is_valid_m(m) for m in forest)


# ---------------------------------------------------------------------------
# standard decomposition
# ---------------------------------------------------------------------------


def test_standard_decomposition_single_node():
    assert standard_decomposition((0,)) == (0, [])


def test_standard_decomposition_reference_tree():
    t, subs = standard_decomposition((3, 1, 0, 0, 0))
    assert t == 3
    assert subs == [(1, 0), (0,), (0,)]


@pytest.mark.parametrize("N", range(1, 8))
def test_decomposition_round_trip(N):
    for m in enumerate_forest(N):
        t, subs = standard_decomposition(m)
        assert t == m[0]
        assert sum(len(s) for s in subs) == N - 1
        assert (t,) + tuple(x for s in subs for x in s) == m


def test_children_lists_reference_tree():
    kids = children_lists((3, 1, 0, 0, 0))
    assert kids == ((1, 3, 4), (2,), (), (), ())


# ---------------------------------------------------------------------------
# labeled trees
# ---------------------------------------------------------------------------


def full_support(n, max_degree):
    return frozenset(iter_indices(n, max_degree, 2))


def test_labeled_single_node():
    sup = full_support(1, 4)
    labeled = enumerate_labeled(1, (3,), 0, sup)
    assert len(labeled) == 1
    t = labeled[0]
    assert t.node_labels == ((3,),)
    assert t.nu_theta == (3,)
    assert t.line_axes == (0,)


def test_labeled_empty_when_degree_too_small():
    sup = full_support(1, 4)
    # total momentum degree must be at least N + 1
    assert enumerate_labeled(2, (2,), 0, sup) == []
    assert enumerate_labeled(3, (3,), 0, sup) == []


def test_labeled_two_node_chain():
    # one variable, order 2, target momentum 3, support {z^2}:
    # single chain with both labels 2, momenta 2 and 3
    labeled = enumerate_labeled(2, (3,), 0, frozenset({(2,)}))
    assert len(labeled) == 1
    t = labeled[0]
    assert t.m == (1, 0)
    assert t.node_labels == ((2,), (2,))
    assert t.momenta == ((3,), (2,))
    assert t.binom_product == 2.0  # binom(2, 1) at the root
    assert t.weight == 1.0


def test_labeled_momentum_invariants():
    sup = full_support(2, 3)
    for alpha in iter_indices(2, 5, 2):
        for N in range(1, sum(alpha)):
            for t in enumerate_labeled(N, alpha, 0, sup):
                # sum of entering-line degrees = N - 1
                assert sum(sum(b) for b in t.betas) == N - 1
                # total momentum degree identity
                assert signed_degree(t.nu_theta) == (
                    sum(sum(a) for a in t.node_labels) - (N - 1)
                )
                assert signed_degree(t.nu_theta) >= N + 1
                # momenta strictly increase root-ward
                kids = children_lists(t.m)
                for v in range(len(t.m)):
                    for c in kids[v]:
                        assert signed_degree(t.momenta[v]) > signed_degree(t.momenta[c])


def test_labeled_deterministic_order():
    sup = full_support(2, 3)
    a = enumerate_labeled(3, (2, 2), 1, sup)
    b = enumerate_labeled(3, (2, 2), 1, sup)
    assert a == b
    keys = [t.sort_key() for t in a]
    assert keys == sorted(keys)


def thinned_support(n, max_degree, seed):
    """About half of the full support, always keeping a label of degree 2."""
    rng = np.random.default_rng(seed)
    full = list(iter_indices(n, max_degree, 2))
    quadratic = [a for a in full if sum(a) == 2]
    kept = [a for a in full if rng.uniform() < 0.5]
    return frozenset(kept + [quadratic[int(rng.integers(0, len(quadratic)))]])


# Grouping the summands of the contributing labelings by f-monomial must give
# the line polynomials the solver's plan is built from, constant by constant,
# and the plan's labeling count (its recursion with every constant 1) must be
# the number of labelings.
@pytest.mark.parametrize("n,alpha_max,supports", [
    (1, 9, ("full", 1, 2)),
    (2, 5, ("full", 4, 5)),
    (3, 4, ("full", 6)),
    (3, 5, (7,)),
])
@pytest.mark.parametrize("kind", ["germ", "field"])
def test_line_polynomials_are_the_labeling_sums(kind, n, alpha_max, supports):
    omega = (GOLDEN, SILVER, 1.0 / math.e)[:n]
    spectrum = (GermSpectrum.from_rotation(omega) if kind == "germ"
                else FieldSpectrum(tuple(1.0 + w for w in omega)))
    for which in supports:
        sup = (full_support(n, alpha_max) if which == "full"
               else thinned_support(n, alpha_max, which))
        variables = tuple((L, a) for L in sorted(sup, key=graded_key) for a in range(n))
        table = divisor_table(spectrum, alpha_max)
        assert (np.abs(table.to_array()[:, n + 1:]) >= RESONANCE_TOL).all()  # no line is resolved
        lines = LinePolynomials(table, variables)
        for alpha in iter_indices(n, alpha_max, 2):
            for j in range(n):
                want: dict = {}
                count = 0
                for N in range(1, sum(alpha)):
                    for t in enumerate_labeled(N, alpha, j, sup, n):
                        if t.binom_product == 0:
                            continue
                        c = t.weight * t.binom_product
                        for nu, ax in zip(t.momenta, t.line_axes):
                            c /= spectrum.divisor(nu, ax)
                        k = sum(lines.key[v] for v in zip(t.node_labels, t.line_axes))
                        want[k] = want.get(k, 0) + c
                        count += 1
                got = lines.poly.get((alpha, j), {})
                assert got.keys() == want.keys(), (which, alpha, j)
                for k, c in want.items():
                    assert abs(got[k] - c) <= 1e-12 * abs(c), (which, alpha, j)
                assert lines.count.get((alpha, j), 0) == count, (which, alpha, j)


# ---------------------------------------------------------------------------
# scale sequences
# ---------------------------------------------------------------------------


def test_scale_sequence_pow2():
    P = ScaleSequence.pow2()
    assert [P[k] for k in range(5)] == [2, 4, 8, 16, 32]
    assert P.kappa(2) == 0
    assert P.kappa(200) == 6


def test_scale_sequence_validation():
    with pytest.raises(ValueError):
        ScaleSequence.from_table([1, 2, 3])
    with pytest.raises(ValueError):
        ScaleSequence.from_table([2, 2, 3])
    P = ScaleSequence.from_table([2, 5, 11])
    assert P[2] == 11
    with pytest.raises(IndexError):
        P[3]


# ---------------------------------------------------------------------------
# scales of lines
# ---------------------------------------------------------------------------


def brute_scale(nubar, omega, P, variant="germ", kmax=40):
    """Oracle: direct bracket search, extending the threshold table on demand."""
    dot = sum(x * w for x, w in zip(nubar, omega))
    x = frac_distance(dot) if variant == "germ" else abs(dot)

    def threshold(k):
        return 0.5 * (omega_frac(tuple(omega), P[k]) if variant == "germ"
                      else omega_hat(tuple(omega), P[k]))

    if x >= threshold(0):
        return None
    for k in range(kmax - 1):
        if threshold(k + 1) <= x < threshold(k):
            return k
    raise AssertionError("oracle ran out of scales")


def test_scale_none_above_first_threshold():
    P = ScaleSequence.pow2()
    omega = (GOLDEN,)
    # {3 g} = 0.1459 vs 0.5 * Omega(2) = 0.5 * {2g} = 0.118: above, no scale
    assert scale_of_line((3,), omega, P) is None


def test_scale_bracket_examples_match_oracle():
    P = ScaleSequence.pow2()
    omega = (GOLDEN,)
    for nu in range(1, 40):
        got = scale_of_line((nu,), omega, P)
        assert got == brute_scale((nu,), omega, P)


def test_scale_monotone_in_distance():
    # shrinking the fractional part never decreases the scale
    P = ScaleSequence.pow2()
    omega = (GOLDEN,)
    pairs = []
    for nu in range(1, 200):
        k = scale_of_line((nu,), omega, P)
        pairs.append((frac_distance(nu * GOLDEN), -1 if k is None else k))
    pairs.sort()
    best = max(k for _, k in pairs)
    for _, k in pairs:
        assert k <= best
        best = min(best, k) if False else best
    # direct pairwise check
    for (x1, k1) in pairs:
        for (x2, k2) in pairs:
            if x1 < x2:
                assert k1 >= k2


def test_zero_reduced_momentum_has_no_scale():
    P = ScaleSequence.pow2()
    assert scale_of_line((0, 0), (GOLDEN, SILVER), P) is None


# ---------------------------------------------------------------------------
# counting bound
# ---------------------------------------------------------------------------


def _tree_with_nubar(total_degree):
    """A single-node labeled tree whose reduced momentum has the given degree."""
    sup = frozenset({(total_degree + 1,)})
    trees = enumerate_labeled(1, (total_degree + 1,), 0, sup)
    assert len(trees) == 1
    return trees[0]


def test_counting_bound_values():
    P = ScaleSequence.pow2()
    k = 1  # p_1 = 4
    assert counting_bound(_tree_with_nubar(3), k, P) == 0
    assert counting_bound(_tree_with_nubar(4), k, P) == 1
    assert counting_bound(_tree_with_nubar(9), k, P) == 3


def test_davie_bound_never_exceeds_bruno_bound():
    P = ScaleSequence.pow2()
    sup = full_support(1, 4)
    for alpha in range(3, 9):
        for N in range(1, alpha):
            for t in enumerate_labeled(N, (alpha,), 0, sup):
                for k in range(3):
                    b = counting_bound(t, k, P, "bruno")
                    d = counting_bound(t, k, P, "davie")
                    if d > 0:
                        assert d <= b


def _all_labeled_trees(n, support_degree, alpha_max, axes):
    sup = full_support(n, support_degree)
    for alpha in iter_indices(n, alpha_max, 2):
        for j in axes:
            for N in range(1, sum(alpha)):
                yield from enumerate_labeled(N, alpha, j, sup)


def test_counting_lemma_exhaustive_germ():
    """No labeled tree in the desk-scale range beats the per-scale bound."""
    P = ScaleSequence.pow2()
    omega = (GOLDEN, SILVER)
    violations = 0
    total = 0
    for t in _all_labeled_trees(2, 3, 5, (0, 1)):
        total += 1
        for k in range(4):
            if count_scale(t, k, omega, P, "germ") > counting_bound(t, k, P):
                violations += 1
    assert total > 500
    assert violations == 0


def test_counting_lemma_exhaustive_field():
    P = ScaleSequence.pow2()
    omega = (-1.0, GOLDEN)
    violations = 0
    for t in _all_labeled_trees(2, 3, 5, (0, 1)):
        for k in range(4):
            if count_scale(t, k, omega, P, "field") > counting_bound(t, k, P):
                violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# separation properties of the counting indicator
# ---------------------------------------------------------------------------


def test_separation_germ_randomized():
    P = ScaleSequence.pow2()
    omega = (GOLDEN, SILVER)
    rng = np.random.default_rng(5)
    hits = 0
    while hits < 300:
        nu1 = tuple(int(x) for x in rng.integers(-40, 41, size=2))
        if not any(nu1):
            continue
        k = int(rng.integers(0, 4))
        if phi_counting(nu1, k, omega, P, "germ") != 1:
            continue
        hits += 1
        p = P[k]
        for nu2 in product(range(-p, p + 1), repeat=2):
            if not any(nu2) or abs_degree(nu2) > p:
                continue
            diff = tuple(a - b for a, b in zip(nu1, nu2))
            if any(diff):
                assert phi_counting(diff, k, omega, P, "germ") == 0


def test_separation_field_randomized():
    P = ScaleSequence.pow2()
    omega = (-1.0, GOLDEN)
    rng = np.random.default_rng(6)
    hits = 0
    while hits < 300:
        nu1 = tuple(int(x) for x in rng.integers(-40, 41, size=2))
        if not any(nu1):
            continue
        k = int(rng.integers(0, 4))
        if phi_counting(nu1, k, omega, P, "field") != 1:
            continue
        hits += 1
        p = P[k]
        for nu2 in product(range(-p, p + 1), repeat=2):
            if not any(nu2) or abs_degree(nu2) > p:
                continue
            diff = tuple(a - b for a, b in zip(nu1, nu2))
            if any(diff):
                assert phi_counting(diff, k, omega, P, "field") == 0


def test_phi_vanishes_at_small_degree():
    P = ScaleSequence.pow2()
    omega = (GOLDEN, SILVER)
    for k in range(3):
        p = P[k]
        for nu in product(range(-p, p + 1), repeat=2):
            if any(nu) and abs_degree(nu) <= p:
                assert phi_counting(nu, k, omega, P, "germ") == 0


def random_labeled_tree(rng, n, N, support_sorted):
    """A uniformly assembled labeled tree: no total-momentum constraint is
    needed for the counting bound, which holds tree by tree."""
    from treelin.trees import _build_labeled, _forest

    forest = _forest(N)
    m = forest[int(rng.integers(0, len(forest)))]
    labels = tuple(
        support_sorted[int(rng.integers(0, len(support_sorted)))] for _ in range(N)
    )
    axes = tuple(int(a) for a in rng.integers(0, n, size=N))
    return _build_labeled(m, children_lists(m), labels, axes, n)


def test_counting_lemma_randomized_beyond_exhaustive_range():
    # orders up to 6 and labels up to degree 4: total momenta well past the
    # exhaustively checked window
    P = ScaleSequence.pow2()
    rng = np.random.default_rng(66)
    support = sorted(iter_indices(2, 4, 2), key=graded_key)
    checks = 0
    for _ in range(2000):
        N = int(rng.integers(1, 7))
        for variant, omega in (("germ", (GOLDEN, SILVER)), ("field", (-1.0, GOLDEN))):
            t = random_labeled_tree(rng, 2, N, support)
            for k in range(5):
                assert count_scale(t, k, omega, P, variant) <= counting_bound(t, k, P)
                checks += 1
    assert checks == 2000 * 2 * 5


def test_kappa_reports_short_table():
    P = ScaleSequence.from_table([2, 5, 11])
    assert P.kappa(7) == 1
    with pytest.raises(ValueError):
        P.kappa(50)
