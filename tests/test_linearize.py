"""Solver equivalences, fixed-point inversion, tree values, classical formula."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from functools import partial

import numpy as np
import pytest

from treelin import (
    CoefficientOverflow,
    CompositionError,
    DivisorBelowTolerance,
    FieldSpectrum,
    Germ,
    GermSpectrum,
    NoContraction,
    ResourceLimit,
    UsageError,
    VectorField,
    VectorSeries,
    classical_lagrange_1d,
    enumerate_forest,
    enumerate_labeled,
    fixed_point_inversion,
    majorant,
    shift_expand,
    solve,
    tree_value,
    verify_conjugacy,
)
from treelin import bruno, cli, linearize, series, trees, treesum
from treelin.diagnostics import germ_family_radius
from treelin.bruno import omega_frac, omega_hat, omega_tilde
from treelin.divisors import RESONANCE_TOL, apply_inverse_D, divisor_table
from treelin.documents import load_json, problem_from_doc
from treelin.families import SeriesFamily, formal_derivative
from treelin.linearize import SETTLED_RTOL
from treelin.indices import iter_indices, slot_count
from treelin.series import ScalarSeries, graded_indices
from treelin.trees import children_lists

from conftest import GOLDEN, SILVER, assert_series_close, moduli, random_vector_series


def fixture_problem(tmp_path, kind, n, D, seed):
    """A `treelin fixture --degree-f 3` problem."""
    path = str(tmp_path / f"{kind}-{n}-{D}-{seed}.json")
    assert cli.main(["fixture", kind, "--n", str(n), "--degree-f", "3",
                     "--trunc", str(D), "--seed", str(seed), "--out", path]) == 0
    return problem_from_doc(load_json(path))


def quadratic_germ(spectrum, k=1, D=8):
    """The germ z -> lambda z (1 - z^k / k) as a problem object."""
    lam = spectrum.lam[0]
    f = VectorSeries.from_coeffs(1, D, {(k + 1,): (-lam / k,)})
    return Germ(spectrum, f)


# ---------------------------------------------------------------------------
# recursive solver basics
# ---------------------------------------------------------------------------


def test_recursive_first_coefficient(golden_spectrum_1d):
    lam = golden_spectrum_1d.lam[0]
    lin = solve(quadratic_germ(golden_spectrum_1d), 8, "recursive")
    assert abs(lin.h.coefficient((2,))[0] - 1.0 / (1.0 - lam)) < 1e-12
    assert lin.residual.max_abs < 1e-10
    assert lin.h.valuation() >= 2


def test_single_monomial_first_order(golden_spectrum_1d):
    # one monomial: the matching coefficient of h is f_alpha / divisor
    spec = golden_spectrum_1d
    f = VectorSeries.from_coeffs(1, 6, {(3,): (0.25 + 0.1j,)})
    lin = solve(Germ(spec, f), 6, "recursive")
    expected = (0.25 + 0.1j) / spec.divisor((3,), 0)
    assert abs(lin.h.coefficient((3,))[0] - expected) < 1e-13


def test_zero_germ_solves_to_zero(golden_spectrum_1d):
    lin = solve(Germ(golden_spectrum_1d, VectorSeries.zero(1, 6)), 6, "recursive")
    assert lin.h.is_zero()
    assert lin.residual.max_abs == 0.0


def test_field_divisor_example():
    # one variable, omega = 1, f = z^2: divisor 2w - w = 1, h_2 = f_2
    spec = FieldSpectrum((1.0,))
    f = VectorSeries.from_coeffs(1, 6, {(2,): (0.7 - 0.2j,)})
    lin = solve(VectorField(spec, f), 6, "recursive")
    assert abs(lin.h.coefficient((2,))[0] - (0.7 - 0.2j)) < 1e-14


def test_resonant_germ_raises():
    spec = GermSpectrum((4.0, 2.0))
    f = random_vector_series(np.random.default_rng(0), 2, 4)
    with pytest.raises(DivisorBelowTolerance):
        solve(Germ(spec, f), 4, "recursive")


@pytest.mark.parametrize("method", ["recursive", "tree", "fixedpoint"])
def test_a_divisor_of_modulus_exactly_the_tolerance_is_divided_by(method):
    # omega = (5e-13, 0): slot ((2, 0), 1) has the divisor 2 * 5e-13, exactly
    # RESONANCE_TOL, which is not below it; f = z_1^2 e_2 reaches no smaller one
    spec = FieldSpectrum((5e-13, 0.0))
    assert spec.divisor((2, 0), 1) == RESONANCE_TOL
    f = VectorSeries.from_coeffs(2, 2, {(2, 0): (0.0, 1.0)})
    lin = solve(VectorField(spec, f), 2, method)
    assert lin.h.coefficient((2, 0)) == (0.0, 1.0 / RESONANCE_TOL)


def test_clip_mode_records_and_continues():
    spec = GermSpectrum((4.0, 2.0))
    f = random_vector_series(np.random.default_rng(0), 2, 4)
    lin = solve(Germ(spec, f), 4, "recursive", on_small_divisor="clip")
    assert not lin.conforming
    assert any(alpha == (0, 2) and j == 0 for alpha, j, _ in lin.clipped)


def test_clip_mode_records_every_resonance_in_graded_lex_order():
    # lambda = (4, 2, 8): lambda_2^2 = lambda_1, lambda_1 lambda_2 = lambda_2^3 = lambda_3
    spec = GermSpectrum((4.0, 2.0, 8.0))
    f = random_vector_series(np.random.default_rng(1), 3, 6)
    lin = solve(Germ(spec, f), 6, "recursive", on_small_divisor="clip")
    assert lin.clipped == (((0, 2, 0), 0, 0.0), ((1, 1, 0), 2, 0.0), ((0, 3, 0), 2, 0.0))
    assert lin.h.coefficient((0, 2, 0))[0] == 0
    assert lin.h.coefficient((0, 2, 0))[1] != 0


# ---------------------------------------------------------------------------
# the online recursion against the per-degree composition
# ---------------------------------------------------------------------------


def homogeneous(g: VectorSeries, d: int) -> VectorSeries:
    """The degree-d part of g, at g's truncation."""
    lo, hi = slot_count(g.n, d - 1), slot_count(g.n, d)
    array = np.zeros_like(g.to_array())
    array[:, lo:hi] = g.to_array()[:, lo:hi]
    return VectorSeries.from_array(g.n, g.trunc, array)


def recursive_oracle(problem, D, clipped=None):
    """The recursion by one full composition f(z + h) per degree; a list ``clipped`` clips."""
    n, f = problem.f.n, problem.f.truncate(D)
    table = divisor_table(problem.spectrum, D)
    h = VectorSeries.zero(n, D)
    for d in range(2, D + 1):
        rhs = f.truncate(d).compose(VectorSeries.identity(n, d) + h.truncate(d))
        h = h + apply_inverse_D(table, homogeneous(rhs, d).truncate(D), clipped)
    return h


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D", [(2, 16), (3, 10)])
def test_online_recursion_is_bitwise_the_composition(tmp_path, kind, n, D):
    for seed in (1, 2, 3):
        problem = fixture_problem(tmp_path, kind, n, D, seed)
        h = recursive_oracle(problem, D)
        got = solve(problem, D, "recursive").h
        assert got.to_array().tobytes() == h.to_array().tobytes(), seed


@pytest.mark.parametrize("kind", ["germ", "field"])
def test_online_recursion_in_one_variable(tmp_path, kind):
    # one slot per degree: the coefficient products round as scalars here,
    # so h may move in the last bits
    problem = fixture_problem(tmp_path, kind, 1, 300, 1)
    h = recursive_oracle(problem, 300)
    got = solve(problem, 300, "recursive").h
    assert (got - h).max_abs() <= 1e-13 * h.max_abs()


def near_resonant_germ():
    # 2 omega_2 - omega_1 = 3e-14: the divisor at ((0, 2), 0) has modulus
    # about 1.9e-13, below the tolerance but not zero
    spec = GermSpectrum.from_rotation((2.0 * SILVER - 3e-14, SILVER))
    return Germ(spec, random_vector_series(np.random.default_rng(2), 2, 6))


SMALL_DIVISOR_GERMS = [
    near_resonant_germ(),
    Germ(GermSpectrum((4.0, 2.0, 8.0)), random_vector_series(np.random.default_rng(1), 3, 6)),
]


@pytest.mark.parametrize("problem", SMALL_DIVISOR_GERMS)
def test_online_recursion_small_divisors_match_the_composition(problem):
    with pytest.raises(DivisorBelowTolerance) as want:
        recursive_oracle(problem, 6)
    with pytest.raises(DivisorBelowTolerance) as got:
        solve(problem, 6, "recursive")
    assert (got.value.index, got.value.axis, got.value.modulus) == (
        want.value.index, want.value.axis, want.value.modulus)
    clipped = []
    h = recursive_oracle(problem, 6, clipped)
    lin = solve(problem, 6, "recursive", on_small_divisor="clip")
    assert clipped and lin.clipped == tuple(clipped)
    assert lin.h.to_array().tobytes() == h.to_array().tobytes()


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D", [(3, 20), (2, 40)])
def test_online_recursion_at_ceiling_sizes(tmp_path, kind, n, D):
    problem = fixture_problem(tmp_path, kind, n, D, 1)
    lin = solve(problem, D, "recursive")
    assert verify_conjugacy(problem, lin.h).max_rel <= 1e-10


@pytest.mark.parametrize("method", ["recursive", "tree", "fixedpoint"])
def test_coefficient_overflow_names_the_first_degree(method):
    # h_2 = 1e150, h_3 ~ 1e300, h_4 ~ 1e450
    f = VectorSeries.from_coeffs(1, 5, {(2,): (1e150,)})
    with pytest.raises(CoefficientOverflow) as exc:
        solve(VectorField(FieldSpectrum((1.0,)), f), 5, method)
    assert exc.value.degree == 4


def test_family_overflow_is_an_error():
    # h is finite up to degree 642 and not from 643 on
    with pytest.raises(CoefficientOverflow) as exc:
        germ_family_radius(1, GOLDEN, 1000)
    assert exc.value.degree == 643


# ---------------------------------------------------------------------------
# three-way solver agreement
# ---------------------------------------------------------------------------


def test_hand_checked_tree_coefficient(golden_spectrum_1d):
    # support {z^2}, target degree 3: exactly one chain, value
    # binom(2,1) f_2^2 / ((lam^3 - lam)(lam^2 - lam))
    spec = golden_spectrum_1d
    lam = spec.lam[0]
    c = 0.3 - 0.8j
    f = VectorSeries.from_coeffs(1, 4, {(2,): (c,)})
    lin = solve(Germ(spec, f), 4, "tree")
    expected = 2.0 * c * c / ((lam ** 3 - lam) * (lam ** 2 - lam))
    assert abs(lin.h.coefficient((3,))[0] - expected) < 1e-13
    # cross-check against the recursion
    rec = solve(Germ(spec, f), 4, "recursive")
    assert abs(rec.h.coefficient((3,))[0] - expected) < 1e-13


@pytest.mark.parametrize("n,D", [(1, 8), (2, 5)])
def test_three_solvers_agree_germ(rng, n, D):
    if n == 1:
        spec = GermSpectrum.from_rotation((GOLDEN,))
    else:
        spec = GermSpectrum.from_rotation((GOLDEN, SILVER))
    for _ in range(5):
        f = random_vector_series(rng, n, D, min_degree=2, max_degree=4)
        germ = Germ(spec, f)
        rec = solve(germ, D, "recursive")
        tree = solve(germ, D, "tree")
        fix = solve(germ, D, "fixedpoint")
        assert_series_close(rec.h, tree.h, rel=1e-9)
        assert_series_close(rec.h, fix.h, rel=1e-9)
        assert rec.residual.max_abs < 1e-9 * max(1.0, rec.h.max_abs())


@pytest.mark.parametrize("n,D", [(1, 8), (2, 5)])
def test_three_solvers_agree_field(rng, n, D):
    spec = FieldSpectrum((1.0,) if n == 1 else (-1.0, GOLDEN))
    for _ in range(5):
        f = random_vector_series(rng, n, D, min_degree=2, max_degree=4)
        vf = VectorField(spec, f)
        rec = solve(vf, D, "recursive")
        tree = solve(vf, D, "tree")
        assert_series_close(rec.h, tree.h, rel=1e-9)
        assert rec.residual.max_abs < 1e-9 * max(1.0, rec.h.max_abs())


@pytest.mark.parametrize("kind", ["germ", "field"])
def test_tree_agrees_with_recursive_at_degree_12(tmp_path, kind):
    problem = fixture_problem(tmp_path, kind, 1, 12, 4)
    tree = solve(problem, 12, "tree")
    rec = solve(problem, 12, "recursive")
    assert (tree.h - rec.h).max_abs() <= 1e-10 * max(1.0, rec.h.max_abs())


@pytest.mark.parametrize("problem", SMALL_DIVISOR_GERMS)
def test_tree_small_divisors_match_the_recursion(problem):
    # a line is clipped alone and dropped from every larger tree, as the
    # recursion carries its one coefficient as zero
    with pytest.raises(DivisorBelowTolerance) as want:
        solve(problem, 6, "recursive")
    with pytest.raises(DivisorBelowTolerance) as got:
        solve(problem, 6, "tree")
    assert (got.value.index, got.value.axis, got.value.modulus) == (
        want.value.index, want.value.axis, want.value.modulus)
    rec = solve(problem, 6, "recursive", on_small_divisor="clip")
    tree = solve(problem, 6, "tree", on_small_divisor="clip")
    assert tree.clipped and tree.clipped == rec.clipped
    assert (tree.h - rec.h).max_abs() <= 2e-15 * rec.h.max_abs()


@pytest.mark.parametrize("problem", SMALL_DIVISOR_GERMS)
def test_fixed_point_small_divisors_match_the_recursion(problem):
    # each step divides every degree so far, over the table solve resolved
    with pytest.raises(DivisorBelowTolerance) as want:
        solve(problem, 6, "recursive")
    with pytest.raises(DivisorBelowTolerance) as got:
        solve(problem, 6, "fixedpoint")
    assert (got.value.index, got.value.axis, got.value.modulus) == (
        want.value.index, want.value.axis, want.value.modulus)
    rec = solve(problem, 6, "recursive", on_small_divisor="clip")
    fixed = solve(problem, 6, "fixedpoint", on_small_divisor="clip")
    assert fixed.clipped and fixed.clipped == rec.clipped
    assert (fixed.h - rec.h).max_abs() <= 2e-15 * rec.h.max_abs()


# Spectrum (-1, 0.5) makes the divisor of ((1, 3), 1) exactly zero.  In the
# document and in seed 1's problem the line's value is 0.0 in the dense
# routes, though its tree polynomial is not empty; in seed 3's it is not.
EXACT_RESONANCE_DOC = (
    '{"kind": "field", "n": 2, "D": 4, "spectrum": {"omega": [[-1.0, 0.0], [0.5, 0.0]]}, '
    '"series": {"n": 2, "D": 4, "kind": "vector", "terms": ['
    '{"alpha": [0, 2], "value": [[1.0, 0.0], [1.0, 0.0]]}, '
    '{"alpha": [1, 2], "value": [[1.0, 0.0], [1.0, 0.0]]}]}}'
)


def exact_resonance_problem(tmp_path, case):
    """The document above, or fixture field n=2 D=4 of seed ``case`` thinned to three indices."""
    if case == "document":
        return problem_from_doc(json.loads(EXACT_RESONANCE_DOC))
    f = fixture_problem(tmp_path, "field", 2, 4, case).f
    kept = {alpha: vec for alpha, vec in f.coeff_items() if alpha in ((0, 2), (0, 3), (1, 2))}
    return VectorField(FieldSpectrum((-1.0, 0.5)), VectorSeries.from_coeffs(2, 4, kept))


@pytest.mark.parametrize("case", ["document", 1, 3])
def test_an_exact_resonance_is_decided_once_for_every_route(tmp_path, case):
    # whether the line's value is zero decides nothing: f's support reaches it
    problem = exact_resonance_problem(tmp_path, case)
    for method in ("recursive", "fixedpoint", "tree"):
        with pytest.raises(DivisorBelowTolerance) as info:
            solve(problem, 4, method)
        assert (info.value.index, info.value.axis, info.value.modulus) == ((1, 3), 1, 0.0), method
    rec = solve(problem, 4, "recursive", on_small_divisor="clip")
    assert rec.clipped == (((1, 3), 1, 0.0),)
    assert rec.h.coefficient((1, 3))[1] == 0
    for method in ("fixedpoint", "tree"):
        other = solve(problem, 4, method, on_small_divisor="clip")
        assert other.clipped == rec.clipped, method
        assert (other.h - rec.h).max_abs() <= 2e-15 * rec.h.max_abs(), method


def test_an_unreached_small_divisor_is_decided_without_magnitudes():
    # Rotation (g, 2g) makes the divisor of ((2, 0), 1) zero, and f = c z1^2 e1
    # never reaches axis 1.  With c = -1e4 lambda_1, h reaches 1e306 by
    # degree 70 and its majorant overflows, so only a decision that reads
    # which slots f reaches, and no magnitude, lets every route finish.
    D = 70
    spectrum = GermSpectrum.from_rotation((GOLDEN, 2 * GOLDEN))
    problem = Germ(spectrum, VectorSeries.from_coeffs(2, D, {(2, 0): (-1e4 * spectrum.lam[0], 0)}))
    h = {}
    for method in ("recursive", "fixedpoint", "tree"):
        for mode in ("raise", "clip"):
            got = solve(problem, D, method, on_small_divisor=mode)
            assert got.conforming and got.clipped == (), (method, mode)
            assert got.residual.max_rel <= 1e-10, (method, mode, got.residual)
        h[method] = got.h.to_array()
    rec = h.pop("recursive")
    for method, other in h.items():
        assert (np.abs(other - rec) <= 1e-13 * np.abs(rec)).all(), method
    with pytest.raises(CoefficientOverflow) as info:
        majorant(problem, D)
    assert info.value.series == "the majorant M" and info.value.degree == D
    assert str(info.value).startswith("the majorant M has a non-finite coefficient at degree 70")
    assert not str(info.value).startswith("h ")


def test_reach_is_reduced_to_0_1_at_every_degree(tmp_path):
    # Rotation 1/5 puts a small divisor at every fifth degree through D = 500,
    # where the fixture germ reaches every slot.
    f = fixture_problem(tmp_path, "germ", 1, 500, 1).f
    got = solve(Germ(GermSpectrum.from_rotation((1 / 5,)), f), 500, on_small_divisor="clip")
    assert len(got.clipped) == 99
    # f = z^3 reaches odd degrees only.  Counted instead of reduced to 0/1,
    # the ternary trees that reach a slot pass double precision at degree
    # 756, and inf * 0 then reads the unreached degree 874 as reached.
    f = VectorSeries.from_coeffs(1, 1000, {(3,): (0.05,)})
    got = solve(Germ(GermSpectrum.from_rotation((1 / 97,)), f), 1000, on_small_divisor="clip")
    assert [(alpha, j) for alpha, j, _ in got.clipped] == [((d,), 0) for d in (195, 389, 583, 777, 971)]


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D", [(1, 16), (2, 8), (3, 6)])
def test_tree_agrees_with_recursive_at_ceiling_sizes(tmp_path, kind, n, D):
    problem = fixture_problem(tmp_path, kind, n, D, 1)
    tree = solve(problem, D, "tree")
    rec = solve(problem, D, "recursive")
    assert (tree.h - rec.h).max_abs() <= 1e-10 * max(1.0, rec.h.max_abs())


def test_the_tree_route_keeps_its_normative_summation_order(tmp_path):
    # A field's divisors and the tree's evaluation are plain Python
    # arithmetic, so these bytes hold on any IEEE double platform.  Summing
    # each line's monomials in any other order moves h in its last bits.
    problem = fixture_problem(tmp_path, "field", 2, 6, 1)
    h = solve(problem, 6, "tree").h.to_array()
    assert hashlib.sha256(h.tobytes()).hexdigest() == (
        "33468668e3c0f73a83aba6d288f42f8410a590bdf44d9b7dea7f90a7cf6a35d6")


def test_tree_degree_limit_is_a_usage_error():
    # a monomial key holds one exponent byte per variable
    f = VectorSeries.from_coeffs(1, 257, {(2,): (0.5,)})
    with pytest.raises(UsageError):
        solve(Germ(GermSpectrum.from_rotation((GOLDEN,)), f), 257, "tree")


def test_tree_solve_enumerates_no_labeling(tmp_path, monkeypatch):
    problem = fixture_problem(tmp_path, "germ", 2, 6, 2)
    built = []
    init = trees.LabeledTree.__init__

    def counted_init(tree, *args, **kw):
        built.append(tree)
        init(tree, *args, **kw)

    def no_enumeration(*args, **kw):
        raise AssertionError("enumerate_labeled called on the solve path")

    monkeypatch.setattr(trees.LabeledTree, "__init__", counted_init)
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "treelin" and hasattr(module, "enumerate_labeled"):
            monkeypatch.setattr(module, "enumerate_labeled", no_enumeration)
    lin = solve(problem, 6, "tree")
    assert not built
    assert lin.h.max_abs() > 0
    summands, monomials = lin.tree_counts
    assert sum(summands) >= sum(monomials) > 0


def test_module_caches_stay_bounded(golden_spectrum_1d):
    # tree solves over more distinct supports than any cache keeps
    D = 7
    supports = [
        frozenset([(2,)] + [(d,) for d in range(3, D + 1) if mask >> (d - 3) & 1])
        for mask in range(series._CACHE_LIMIT + 4)
    ]
    for sup in supports:
        f = VectorSeries.from_coeffs(1, D, {a: (0.25,) for a in sup})
        solve(Germ(golden_spectrum_1d, f), D, "tree")
        for alpha in iter_indices(1, D, 2):
            for N in range(1, sum(alpha)):
                enumerate_labeled(N, alpha, 0, sup)
    for p in range(2, 300):
        omega_frac((GOLDEN,), p)
        omega_hat((GOLDEN,), p)
        omega_tilde(golden_spectrum_1d, p)
    children_lists.cache_clear()
    for m in enumerate_forest(10):  # 4,862 trees
        children_lists(m)
    # products at every truncation of one pair table, twice over
    for T in list(range(13)) * 2:
        s = ScalarSeries.one(2, T)
        s.multiply(s)
    assert series._PAIR_TABLES[2].top == 12  # the last product's top degree
    for table in series._PAIR_TABLES.values():
        # one block, the newest: the C(2n - 1 + d, 2n - 1) pairs of output degree d
        assert len(table.kept[0]) == math.comb(2 * table.n - 1 + table.top, 2 * table.n - 1)
    # products in more dimensions than the basis and pair-table caches keep
    for n in range(2, series._CACHE_LIMIT + 6):
        s = ScalarSeries.one(n, 1)
        s.multiply(s)
    # one bound for every dict cache, each driven past it above
    for cache in (series._BASES, series._PAIR_TABLES):
        assert len(cache) == series._CACHE_LIMIT
    caches = (trees._forest, trees.children_lists, trees._labeled_forest_cached,
              bruno.omega_tilde, bruno.omega_frac, bruno.omega_hat)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None, cache.__name__
        assert info.currsize <= info.maxsize, cache.__name__
    # every cache the solve and the loops above drive past its limit is full
    for cache in (trees.children_lists, trees._labeled_forest_cached,
                  bruno.omega_tilde, bruno.omega_frac, bruno.omega_hat):
        info = cache.cache_info()
        assert info.currsize == info.maxsize, cache.__name__


@pytest.mark.parametrize("method", ["recursive", "fixedpoint", "tree"])
@pytest.mark.parametrize("kind,n,D", [("germ", 2, 20), ("field", 3, 10)])
def test_h_is_bitwise_the_same_whatever_block_the_pair_table_holds(tmp_path, method, kind, n, D):
    problem = fixture_problem(tmp_path, kind, n, D, 1)
    if method == "tree":
        # the tree plan of the fixture's dense f is out of reach at these sizes
        rest = (0,) * (n - 2)
        f = VectorSeries.from_coeffs(n, D, {(2, 0) + rest: (0.5, 0) + rest,
                                            (1, 1) + rest: (0, 0.25) + rest})
        problem = type(problem)(problem.spectrum, f)
    series._PAIR_TABLES.pop(n, None)  # a cold table
    cold = solve(problem, D, method)
    for other in (D + 4, D - 4):  # after a larger-D solve, then after a smaller one
        solve(problem, other, method)
        again = solve(problem, D, method)
        assert again.h.to_array().tobytes() == cold.h.to_array().tobytes(), other
        assert again.residual == cold.residual, other


def _no_memory(table, d):
    raise MemoryError


@pytest.mark.parametrize("method", ["recursive", "fixedpoint", "tree"])
def test_running_out_of_memory_is_a_resource_limit(tmp_path, monkeypatch, method):
    # the tree route reaches the pair table only through the conjugacy check
    problem = fixture_problem(tmp_path, "germ", 2, 6, 1)
    monkeypatch.setattr(series._PairTable, "block", _no_memory)
    with pytest.raises(ResourceLimit) as info:
        solve(problem, 6, method)
    assert (info.value.route, info.value.n, info.value.D) == (method, 2, 6)
    assert info.value.cause == "ran out of memory"
    assert isinstance(info.value.__cause__, MemoryError)


def test_tree_build_past_its_monomial_limit_is_a_resource_limit(tmp_path, monkeypatch):
    problem = fixture_problem(tmp_path, "germ", 2, 6, 1)
    variables, _ = treesum._tree_variables(problem.f)
    held = treesum.LinePolynomials(divisor_table(problem.spectrum, 6), variables).held
    assert 0 < held <= treesum.MONOMIAL_LIMIT
    monkeypatch.setattr(treesum, "MONOMIAL_LIMIT", held - 1)
    with pytest.raises(ResourceLimit) as info:
        solve(problem, 6, "tree")
    assert (info.value.route, info.value.n, info.value.D) == ("tree", 2, 6)
    assert info.value.cause == f"held over {held - 1:,} monomials"
    assert info.value.__cause__ is None
    monkeypatch.setattr(treesum, "MONOMIAL_LIMIT", held)
    assert solve(problem, 6, "tree").h.max_abs() > 0


# ---------------------------------------------------------------------------
# the majorant: the same equation over the moduli table and |f|
# ---------------------------------------------------------------------------

ROUTES = {
    "recursive": linearize._solve_recursive,
    "fixedpoint": linearize._solve_fixedpoint,
    "tree": lambda table, f: treesum._solve_tree(table, f)[0],
}


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D,tree_D", [(2, 10, 10), (3, 10, 6), (1, 30, 12)])
def test_every_route_over_the_moduli_table_solves_the_majorant(tmp_path, kind, n, D, tree_D):
    # The majorant M = |D|^-1 [|f|(z + M)] is the equation over the moduli
    # table and |f|.  It has no cancellation, so every route must give the
    # recursion's M within 8 d eps M_alpha at each slot of degree d, and M
    # must bound every route's |h_alpha| within a factor 1 + 4 d eps.  Both
    # bounds were fixed before the first run.
    eps = np.finfo(float).eps
    for seed in (1, 2):
        problem = fixture_problem(tmp_path, kind, n, D, seed)
        for method, route in ROUTES.items():
            Dm = tree_D if method == "tree" else D
            h = solve(problem, Dm, method).h.to_array()
            table = moduli(divisor_table(problem.spectrum, Dm))
            f = moduli(problem.f.truncate(Dm))
            M = np.abs(majorant(problem, Dm).to_array())
            d = np.array([sum(alpha) for alpha in graded_indices(n, Dm)])
            gap = np.abs(route(table, f).to_array() - M)
            assert (gap <= 8 * d * eps * M).all(), (method, seed, (gap / M).max())
            assert (np.abs(h) <= M * (1 + 4 * d * eps)).all(), (method, seed)


def test_germ_field_structural_parity(rng):
    # choose spectra so the divisors coincide numerically: lambda = 2 gives
    # lambda^a - lambda = 2^a - 2, matched by a field with the same values
    f = random_vector_series(rng, 1, 5, min_degree=2, max_degree=3)
    gl = solve(Germ(GermSpectrum((2.0,)), f), 5, "tree")

    class FakeField(FieldSpectrum):
        def divisor(self, nu, j):
            return 2.0 ** nu[0] - 2.0

    fl = solve(VectorField(FakeField((2.0,)), f), 5, "tree")
    assert_series_close(gl.h, fl.h, rel=1e-12)


def test_solve_dispatcher(rng):
    spec = GermSpectrum.from_rotation((GOLDEN,))
    f = random_vector_series(rng, 1, 5, min_degree=2, max_degree=3)
    germ = Germ(spec, f)
    for method in ("recursive", "tree", "fixedpoint"):
        lin = solve(germ, 5, method)
        assert lin.method == method
        assert (lin.tree_counts is None) == (method != "tree")
    with pytest.raises(ValueError):
        solve(germ, 5, "newton")


@pytest.mark.parametrize("method", ["recursive", "tree", "fixedpoint"])
@pytest.mark.parametrize("mode", ["Raise", None])
def test_solve_refuses_an_unknown_small_divisor_mode(method, mode):
    # the germ has a small divisor, which a mode read as neither "raise" nor
    # "clip" would pass over silently
    with pytest.raises(ValueError, match="on_small_divisor"):
        solve(SMALL_DIVISOR_GERMS[0], 6, method, on_small_divisor=mode)


def test_fixed_point_divides_through_the_module_function(monkeypatch, golden_spectrum_1d):
    # the operator looks linearize.apply_inverse_D up at each call, so a
    # rebinding of that name (as a tracer does) sees every division
    calls = []

    def counted(*args):
        calls.append(args[1].trunc)
        return apply_inverse_D(*args)

    monkeypatch.setattr(linearize, "apply_inverse_D", counted)
    solve(quadratic_germ(golden_spectrum_1d, D=6), 6, "fixedpoint")
    assert calls == [1, 2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# fixed-point inversion
# ---------------------------------------------------------------------------


def test_fixed_point_constant_family():
    # constant right-hand side: H = w + c u in one step
    n, D = 1, 5
    c = VectorSeries.from_coeffs(n, D, {(2,): (1.5,)})
    family = SeriesFamily(n, D, D, {(0,): c})
    w = VectorSeries.from_coeffs(n, D, {(3,): (0.5,)})
    H = fixed_point_inversion(lambda g: g, family, 2.0, w, D)
    assert_series_close(H, w + c.scale(2.0), rel=1e-14)


def test_fixed_point_matches_recursive(rng, golden_spectrum_1d):
    f = random_vector_series(rng, 1, 7, min_degree=2, max_degree=4)
    germ = Germ(golden_spectrum_1d, f)
    op = partial(apply_inverse_D, divisor_table(golden_spectrum_1d, 7))
    H = fixed_point_inversion(op, shift_expand(f.truncate(7)), 1.0,
                              VectorSeries.zero(1, 7), 7)
    assert_series_close(H, solve(germ, 7, "recursive").h, rel=1e-10)


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("D", [12, 16])
def test_fixed_point_converges_at_moderate_degree(tmp_path, kind, D):
    # at these sizes a product whose summation order depends on the support
    # leaves roundoff at settled degrees, which stalls the valuation gain
    for seed in (1, 2, 3):
        problem = fixture_problem(tmp_path, kind, 2, D, seed)
        fix = solve(problem, D, "fixedpoint")
        rec = solve(problem, D, "recursive")
        gap = (fix.h - rec.h).max_abs() / max(1.0, rec.h.max_abs())
        assert gap <= 1e-10, (seed, gap)


def test_fixed_point_no_contraction():
    # a family with a linear term of valuation zero never gains valuation
    n, D = 1, 5
    family = SeriesFamily(n, D, D, {
        (1,): VectorSeries.from_coeffs(n, D, {(0,): (1.0,)}),
    })
    w = VectorSeries.from_coeffs(n, D, {(1,): (1.0,)})
    with pytest.raises(NoContraction):
        fixed_point_inversion(lambda g: g, family, 1.0, w, D)


class _CountingOperator:
    """The identity, counting its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, g):
        self.calls += 1
        return g


def test_fixed_point_refuses_a_non_contracting_family_up_front():
    # only the coefficient at beta = (0, 1) has valuation 0
    n, D = 2, 6
    family = SeriesFamily(n, D, D, {
        (0, 0): VectorSeries.from_coeffs(n, D, {(2, 0): (1.0, 0.5)}),
        (1, 0): VectorSeries.from_coeffs(n, D, {(1, 0): (0.25, 0.0)}),
        (0, 1): VectorSeries.from_coeffs(n, D, {(0, 0): (0.0, 1.0), (0, 1): (1.0, 0.0)}),
        (0, 2): VectorSeries.from_coeffs(n, D, {(0, 0): (1.0, 1.0)}),
    })
    op = _CountingOperator()
    with pytest.raises(NoContraction, match=r"\(0, 1\)"):
        fixed_point_inversion(op, family, 1.0, VectorSeries.zero(n, D), D)
    assert op.calls == 0


def test_fixed_point_iterate_with_a_constant_term_is_a_composition_error():
    n, D = 1, 5
    family = SeriesFamily(n, D, D, {(2,): VectorSeries.from_coeffs(n, D, {(0,): (1.0,)})})
    w = VectorSeries.from_coeffs(n, D, {(0,): (0.5,), (1,): (1.0,)})
    op = _CountingOperator()
    with pytest.raises(CompositionError):
        fixed_point_inversion(op, family, 1.0, w, D)
    assert op.calls == 1  # step 1 settles the constant; step 2 refuses it


def full_truncation_fixed_point(op, family, u, w, D):
    """The fixed point iterated with the whole family at truncation D until an iterate repeats.

    The exact stop test suits an oracle, because the kernel keeps low
    degrees bitwise independent of high ones.
    """
    H = op(w)
    for _ in range(D + 3):
        Hn = op(w + family.evaluate(H).scale(u))
        if (Hn - H).is_zero():
            return Hn
        H = Hn
    raise AssertionError("the full-truncation iteration did not stabilize")


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D", [(1, 14), (2, 10), (3, 7)])
def test_growing_truncation_is_bitwise_the_full_iteration(tmp_path, kind, n, D):
    for seed in (1, 2):
        problem = fixture_problem(tmp_path, kind, n, D, seed)
        op = partial(apply_inverse_D, divisor_table(problem.spectrum, D))
        family = shift_expand(problem.f.truncate(D))
        w = VectorSeries.zero(n, D)
        want = full_truncation_fixed_point(op, family, 1.0, w, D)
        got = fixed_point_inversion(op, family, 1.0, w, D)
        assert got.to_array().tobytes() == want.to_array().tobytes(), seed
        assert solve(problem, D, "fixedpoint").h.to_array().tobytes() == want.to_array().tobytes()


def test_growing_truncation_is_bitwise_the_full_iteration_kepler():
    D = 12
    family = kepler_family(D)
    w = VectorSeries.zero(2, D)
    want = full_truncation_fixed_point(lambda g: g, family, 1.0, w, D)
    got = fixed_point_inversion(lambda g: g, family, 1.0, w, D)
    assert got.to_array().tobytes() == want.to_array().tobytes()


@pytest.mark.parametrize("kind", ["germ", "field"])
@pytest.mark.parametrize("n,D", [(3, 20), (2, 40), (2, 80)])
def test_fixed_point_matches_recursive_at_ceiling_sizes(tmp_path, kind, n, D):
    problem = fixture_problem(tmp_path, kind, n, D, 1)
    fix = solve(problem, D, "fixedpoint").h
    rec = solve(problem, D, "recursive").h
    assert (fix - rec).max_abs() <= 1e-10 * max(1.0, rec.max_abs())


class _DriftingOperator:
    """The identity plus ``drift`` times the step number at the coefficient of z."""

    def __init__(self, drift):
        self.drift = drift
        self.steps = 0

    def __call__(self, g):
        self.steps += 1
        return g + VectorSeries.from_coeffs(1, g.trunc, {(1,): (self.drift * self.steps,)})


def test_fixed_point_settled_degree_tolerance():
    # degree 1 settles at the first step; the operator moves it by `drift`
    # at every later step, against a largest coefficient of about 1
    n, D = 1, 6
    c = VectorSeries.from_coeffs(n, D, {(1,): (1.0,), (3,): (0.25,)})
    family = SeriesFamily(n, D, D, {(0,): c})
    w = VectorSeries.zero(n, D)
    H = fixed_point_inversion(_DriftingOperator(0.5 * SETTLED_RTOL), family, 1.0, w, D)
    assert abs(H.coefficient((1,))[0] - 1.0) <= D * SETTLED_RTOL
    with pytest.raises(NoContraction, match="degree 1 moved"):
        fixed_point_inversion(_DriftingOperator(2.0 * SETTLED_RTOL), family, 1.0, w, D)


def test_fixed_point_refuses_a_settled_degree_that_moves_by_1e_9_of_the_iterate():
    # far below any tolerance a comparison of routes states, yet 1000 times
    # SETTLED_RTOL: an operator that moves a settled degree does not contract
    n, D, scale = 1, 6, 1e3
    c = VectorSeries.from_coeffs(n, D, {(1,): (scale,), (3,): (0.25 * scale,)})
    family = SeriesFamily(n, D, D, {(0,): c})
    with pytest.raises(NoContraction, match="degree 1 moved"):
        fixed_point_inversion(_DriftingOperator(1e-9 * scale), family, 1.0, VectorSeries.zero(n, D), D)


def test_fixed_point_valuation_ladder(rng, golden_spectrum_1d):
    # partial tree sums match the fixed point through degree N + 1 (to
    # roundoff); the remainder is carried by trees of higher order
    f = random_vector_series(rng, 1, 6, min_degree=2, max_degree=3)
    op = partial(apply_inverse_D, divisor_table(golden_spectrum_1d, 6))
    fam = shift_expand(f.truncate(6))
    H = fixed_point_inversion(op, fam, 1.0, VectorSeries.zero(1, 6), 6)
    acc = VectorSeries.zero(1, 6)
    for N in range(1, 5):
        for theta in enumerate_forest(N):
            acc = acc + tree_value(theta, op, fam, 1.0)
        diff = H - acc
        low = max(
            (m for d, m in diff.per_degree_max().items() if d <= N + 1),
            default=0.0,
        )
        assert low <= 1e-12 * max(1.0, H.max_abs())


# ---------------------------------------------------------------------------
# per-tree label identity
# ---------------------------------------------------------------------------


def label_sum_for_tree(theta_m, germ, D):
    """Sum of the explicit summands over all labelings of one fixed tree."""
    spec, f = germ.spectrum, germ.f
    n = f.n
    support = frozenset(a for a in f.support())
    N = len(theta_m)
    acc = VectorSeries.zero(n, D)
    coeffs: dict = {}
    for alpha in iter_indices(n, D, 2):
        for j in range(n):
            total = 0j
            for t in enumerate_labeled(N, alpha, j, support, n):
                if t.m != theta_m or t.binom_product == 0:
                    continue
                val = complex(t.weight * t.binom_product)
                for (lab, ax), nu in zip(
                    zip(t.node_labels, t.line_axes), t.momenta
                ):
                    val *= f.coefficient(lab)[ax] / spec.divisor(nu, ax)
                total += val
            if total != 0:
                coeffs.setdefault(alpha, [0j] * n)[j] = total
    return acc + VectorSeries.from_coeffs(
        n, D, {a: tuple(v) for a, v in coeffs.items()}
    )


@pytest.mark.parametrize("n", [1, 2])
def test_per_tree_label_identity(rng, n):
    """Label sums per tree equal the recursive tree values, order <= 4."""
    D = 6 if n == 1 else 5
    spec = (GermSpectrum.from_rotation((GOLDEN,)) if n == 1
            else GermSpectrum.from_rotation((GOLDEN, SILVER)))
    f = random_vector_series(rng, n, D, min_degree=2, max_degree=3)
    germ = Germ(spec, f)
    op = partial(apply_inverse_D, divisor_table(spec, D))
    fam = shift_expand(f)
    for N in range(1, 5):
        for theta in enumerate_forest(N):
            lhs = label_sum_for_tree(theta, germ, D)
            rhs = tree_value(theta, op, fam, 1.0)
            assert_series_close(lhs, rhs, rel=1e-9)


# ---------------------------------------------------------------------------
# classical one-dimensional formula
# ---------------------------------------------------------------------------


def sympy_inversion_orders(G_expr, w, orders, w_degree):
    """Oracle: (1/N!) d^(N-1)/dw^(N-1) G(w)^N as Taylor coefficients in w."""
    import sympy as sp

    out = []
    for N in range(1, orders + 1):
        expr = sp.diff(G_expr ** N, w, N - 1) / sp.factorial(N)
        poly = sp.series(expr, w, 0, w_degree + 1).removeO().as_poly(w)
        coeffs = {0: complex(expr.subs(w, 0))} if poly is None else {
            int(m): complex(c) for m, c in
            ((mono[0], coef) for mono, coef in poly.terms())
        }
        out.append(coeffs)
    return out


def test_classical_constant_g():
    # G = 1: H = w + u
    G = ScalarSeries(1, 8, {(0,): 1.0})
    table = classical_lagrange_1d(G, 4)
    assert table.orders[0] == ScalarSeries(1, 8, {(0,): 1.0})
    for N in range(2, 5):
        assert table.orders[N - 1].is_zero()


def test_classical_linear_g_matches_symbolic():
    # G = w: coefficient of u^N is N w ... quickly checked by the oracle
    import sympy as sp

    w = sp.symbols("w")
    G = ScalarSeries(1, 10, {(1,): 1.0})
    table = classical_lagrange_1d(G, 5)
    oracle = sympy_inversion_orders(w, w, 5, 8)
    for N in range(1, 6):
        for m, c in oracle[N - 1].items():
            assert abs(table.orders[N - 1].get((m,)) - c) < 1e-12


def test_classical_matches_tree_sums_polynomial():
    """Per-order tree sums against the derivative formula, polynomial G."""
    D = 20
    compare_through = 8
    G = ScalarSeries(1, D, {(0,): 1.0, (1,): 1.0, (2,): 2.0, (3,): -1.0})
    table = classical_lagrange_1d(G, 6)
    fam = SeriesFamily(1, D, D, {
        (t,): VectorSeries([formal_derivative(G, (t,))]) for t in range(D + 1)
    })
    for N in range(1, 7):
        total = VectorSeries.zero(1, D)
        for theta in enumerate_forest(N):
            total = total + tree_value(theta, lambda g: g, fam, 1.0)
        got = total.components[0]
        want = table.orders[N - 1]
        for m in range(compare_through + 1):
            assert abs(got.get((m,)) - want.get((m,))) < 1e-10, (N, m)


def test_classical_matches_tree_sums_sine():
    D = 20
    compare_through = 8
    coeffs = {}
    for k in range(0, D + 1, 2):
        # sin(w)/w-style truncation shifted: use sin(w) = sum (-1)^m w^(2m+1)/(2m+1)!
        pass
    sin_coeffs = {
        (2 * m + 1,): (-1.0) ** m / math.factorial(2 * m + 1)
        for m in range(0, (D - 1) // 2 + 1)
    }
    G = ScalarSeries(1, D, sin_coeffs)
    table = classical_lagrange_1d(G, 6)
    fam = SeriesFamily(1, D, D, {
        (t,): VectorSeries([formal_derivative(G, (t,))]) for t in range(D + 1)
    })
    for N in range(1, 7):
        total = VectorSeries.zero(1, D)
        for theta in enumerate_forest(N):
            total = total + tree_value(theta, lambda g: g, fam, 1.0)
        got = total.components[0]
        want = table.orders[N - 1]
        for m in range(compare_through + 1):
            assert abs(got.get((m,)) - want.get((m,))) < 1e-10, (N, m)


def test_classical_kepler_second_order():
    # G = sin: order-2 coefficient is sin(w) cos(w) = sin(2w)/2
    D = 16
    sin_coeffs = {
        (2 * m + 1,): (-1.0) ** m / math.factorial(2 * m + 1)
        for m in range(0, (D - 1) // 2 + 1)
    }
    G = ScalarSeries(1, D, sin_coeffs)
    table = classical_lagrange_1d(G, 3)
    # sin(2w)/2 Taylor: (2w)^(2m+1) (-1)^m / (2 (2m+1)!)
    for m in range(0, 5):
        expected = (-1.0) ** m * 2.0 ** (2 * m + 1) / (2 * math.factorial(2 * m + 1))
        assert abs(table.orders[1].get((2 * m + 1,)) - expected) < 1e-10


def test_classical_numeric_evaluation():
    # solving h = u sin(h) + w numerically agrees with the series for small u
    D = 18
    sin_coeffs = {
        (2 * m + 1,): (-1.0) ** m / math.factorial(2 * m + 1)
        for m in range(0, (D - 1) // 2 + 1)
    }
    G = ScalarSeries(1, D, sin_coeffs)
    table = classical_lagrange_1d(G, 10)
    u, w = 0.05, 0.3
    h = w
    for _ in range(60):
        h = u * math.sin(h) + w
    assert abs(table.evaluate(u, w) - h) < 1e-12


# ---------------------------------------------------------------------------
# Kepler fixture
# ---------------------------------------------------------------------------


def kepler_family(D):
    """Right-hand side family of h = e sin(M + h), embedded in two variables.

    Inner variables are (M, e); component 2 of everything is zero, and the
    eccentricity rides inside the family coefficients g_(b,0) = e sin^(b)(M)/b!.
    """
    n = 2
    sin_series = {}
    for m in range(0, D):
        if 1 + 2 * m > D - 1:
            break
        sin_series[(2 * m + 1, 1)] = (-1.0) ** m / math.factorial(2 * m + 1)
    base = VectorSeries.from_coeffs(
        n, D, {a: (c, 0.0) for a, c in sin_series.items()}
    )  # e * sin(M): valuation 2
    return shift_expand(base)


def sympy_kepler_coefficients(e_order, m_order):
    """Oracle: iterate E = M + e sin E symbolically and expand in (e, M)."""
    import sympy as sp

    M, e = sp.symbols("M e")
    expr = M
    for _ in range(e_order + 1):
        expr = M + e * sp.sin(expr)
        expr = sp.expand(sp.series(expr, e, 0, e_order + 1).removeO())
    h = sp.expand(expr - M)
    table = {}
    for k in range(1, e_order + 1):
        ek = h.coeff(e, k)
        poly = sp.series(ek, M, 0, m_order + 1).removeO()
        poly = sp.expand(poly)
        for m in range(0, m_order + 1):
            c = complex(poly.coeff(M, m))
            if c != 0:
                table[(m, k)] = c
    return table


def test_kepler_reversion_matches_fixed_point():
    D = 10
    fam = kepler_family(D)
    H = fixed_point_inversion(
        lambda g: g, fam, 1.0, VectorSeries.zero(2, D), D
    )
    oracle = sympy_kepler_coefficients(6, D - 1)
    for (m, k), c in oracle.items():
        if m + k <= D:
            got = H.coefficient((m, k))[0]
            assert abs(got - c) < 1e-10, ((m, k), got, c)
    # and nothing extra: every stored coefficient within range matches
    for alpha, vec in H.coeff_items():
        m, k = alpha
        if k <= 6 and m + k <= D:
            assert abs(vec[0] - oracle.get((m, k), 0.0)) < 1e-10


def test_kepler_e2_row_is_sin_cos():
    # coefficient of e^2 is sin(M) cos(M) = sin(2M)/2 as a series in M
    D = 12
    fam = kepler_family(D)
    H = fixed_point_inversion(
        lambda g: g, fam, 1.0, VectorSeries.zero(2, D), D
    )
    for m in range(0, D - 2):
        expected = 0.0
        if m % 2 == 1:
            mm = (m - 1) // 2
            expected = (-1.0) ** mm * 2.0 ** m / (2.0 * math.factorial(m))
        assert abs(H.coefficient((m, 2))[0] - expected) < 1e-12


# ---------------------------------------------------------------------------
# conjugacy verification
# ---------------------------------------------------------------------------


def test_verify_zero_candidate_reports_f_norm(rng):
    # the defect of h = 0 is -f(z), and composing with the identity is exact
    for n in (1, 2, 3):
        f = random_vector_series(rng, n, 6, min_degree=2, max_degree=4)
        for problem in (Germ(GermSpectrum.from_rotation((GOLDEN, SILVER, 1.0 / math.e)[:n]), f),
                        VectorField(FieldSpectrum((-1.0, GOLDEN, 2.5j)[:n]), f)):
            rep = verify_conjugacy(problem, VectorSeries.zero(n, 6))
            assert rep.max_abs == f.max_abs()


@pytest.mark.parametrize("n,D", [(1, 40), (2, 30)])
def test_germ_residual_is_at_the_rounding_floor(tmp_path, n, D):
    # the defect D h - f(z + h) has no large terms that cancel, so a
    # correct germ solution reads at the rounding floor
    for seed in (1, 2, 3):
        problem = fixture_problem(tmp_path, "germ", n, D, seed)
        assert solve(problem, D, "recursive").residual.max_rel <= 1e-15, seed


def test_verify_detects_single_perturbation(rng, golden_spectrum_1d):
    f = random_vector_series(rng, 1, 6, min_degree=2, max_degree=4)
    germ = Germ(golden_spectrum_1d, f)
    lin = solve(germ, 6, "recursive")
    assert verify_conjugacy(germ, lin.h).max_abs < 1e-12
    bumped = lin.h + VectorSeries.from_coeffs(1, 6, {(4,): (1e-3,)})
    rep = verify_conjugacy(germ, bumped)
    assert rep.max_abs > 1e-5


def test_verify_field_defect(rng):
    spec = FieldSpectrum((-1.0, GOLDEN))
    f = random_vector_series(rng, 2, 5, min_degree=2, max_degree=3)
    vf = VectorField(spec, f)
    lin = solve(vf, 5, "recursive")
    assert verify_conjugacy(vf, lin.h).max_abs < 1e-12
