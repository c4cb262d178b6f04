"""Every route against the exact h of ``reference.py``: bit for bit, or within 8 d eps M on true spectra.

Each route is ``(table, f) -> h``, so it can be fed a table that no
spectrum gives.  With table entries from {±1, ±2, ±1/2, ±i, ±2i} and f
with Gaussian-integer coefficients, every sum, product and quotient is a
dyadic Gaussian rational.  Whether such a case is exact in doubles is
decided from the problem alone: the majorant M over |table| and |f| bounds
every partial sum, and a degree-D slot sits over at most D - 1 divisions,
each of which halves the finest dyadic unit at most.  So if
max M * 2^(D-1) < 2^53, no route rounds, and each must equal the reference
bit for bit.

The reach pass of ``linearize._resolve_small_divisors`` is the same
recursion over f as 0/1 with every divisor 1, so it is checked against the
reference's integer counts.

On true spectra every route rounds.  The reference takes the problem's
own floats exactly, so it gives the true h: of a field in Gaussian
rationals, of a germ, given by its eigenvalues or by its rotation, in 60
digits.  Each route must be within 8 d eps M_alpha of it at every slot of
degree d, M the majorant ``tl.majorant``.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from treelin import (DivisorBelowTolerance, Germ, GermSpectrum, ScalarSeries, VectorSeries,
                     classical_lagrange_1d, cli, majorant, solve)
from treelin import linearize, treesum
from treelin.documents import load_json, problem_from_doc
from treelin.series import graded_indices

from reference import Gaussian, as_array, conjugacy, recursion

HALF = Fraction(1, 2)
# the table entries: a germ of a rotation spectrum has complex divisors,
# a field of a real spectrum real ones
GERM_ENTRIES = [Gaussian(s * m) for s in (1, -1) for m in (1, 2, HALF)] + \
               [Gaussian(0, s * m) for s in (1, -1) for m in (1, 2)]
FIELD_ENTRIES = [Gaussian(s * m) for s in (1, -1) for m in (1, 2, HALF)]


def as_series(n, D, values):
    return VectorSeries.from_array(n, D, as_array(n, D, values))


# ---------------------------------------------------------------------------
# the exact cases
# ---------------------------------------------------------------------------


def draw_case(shape, n, D, seed, axis_only=True, f_degree=3, density=0.6):
    """A fabricated table over every slot of degree 2..D, and a sparse f of degree 2..f_degree.

    f's coefficients are Gaussian integers with parts in [-2, 2]; with
    ``axis_only`` each is real or imaginary, so that |f| is exact.
    """
    rng = random.Random(f"{shape}/{n}/{D}/{seed}")
    entries = GERM_ENTRIES if shape == "germ" else FIELD_ENTRIES
    table = {(alpha, j): rng.choice(entries)
             for alpha in graded_indices(n, D) if sum(alpha) >= 2 for j in range(n)}
    f = {}
    # by degree, and within one in descending lex order
    for alpha in sorted(graded_indices(n, f_degree), key=lambda a: (sum(a), [-e for e in a])):
        if sum(alpha) < 2 or sum(alpha) > 2 and rng.random() > density:  # degree 2 is dense
            continue
        c = []
        while not any(c):
            c = [_draw(rng, axis_only) for _ in range(n)]
        f[alpha] = c
    return table, f


def _draw(rng, axis_only):
    re, im = rng.randint(-2, 2), rng.randint(-2, 2)
    if axis_only:
        re, im = (re, 0) if rng.random() < 0.5 else (0, re)
    return Gaussian(re, im)


def exact_h(n, D, table, f):
    return recursion(n, D, f, lambda beta, j, value: value / table[(beta, j)])


def modulus(v):
    """|v| for a real or imaginary v, exactly, and a bound of it for any other."""
    return abs(v.re) + abs(v.im)


def exact_premise(n, D, table, f):
    """max M * 2^(D-1) < 2^53, M the majorant over |table| and ``modulus`` of f."""
    bound = {alpha: [modulus(v) for v in c] for alpha, c in f.items()}
    M = recursion(n, D, bound, lambda beta, j, value: value / modulus(table[(beta, j)]))
    top = max(M.values(), default=Fraction(0))
    return top * 2 ** (D - 1) < 2 ** 53, top


def route_inputs(n, D, table, f):
    """The table and f as the routes take them: vector series at truncation D."""
    return as_series(n, D, table), as_series(n, D, {(alpha, j): c[j] for alpha, c in f.items()
                                                  for j in range(n)})


CASES = [("germ", 1, 16), ("germ", 2, 10), ("germ", 3, 6),
         ("field", 1, 16), ("field", 2, 10), ("field", 3, 6)]


@pytest.mark.parametrize("shape,n,D", CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_route_is_exact_on_a_dyadic_problem(shape, n, D, seed):
    table, f = draw_case(shape, n, D, seed)
    exact, top = exact_premise(n, D, table, f)
    if not exact:
        pytest.skip(f"max M = {float(top):.3g}: M * 2^(D-1) reaches 2^53, so a route may round")
    tab, fs = route_inputs(n, D, table, f)
    want = as_array(n, D, exact_h(n, D, table, f))
    assert np.abs(want).max() > 0
    routes = {"recursive": linearize._solve_recursive(tab, fs),
              "fixedpoint": linearize._solve_fixedpoint(tab, fs),
              "tree": treesum._solve_tree(tab, fs)[0]}
    for name, h in routes.items():
        assert np.array_equal(h.to_array(), want), name
    # the majorant: the same recursion over |table| and |f|, all exact here
    moduli = {key: modulus(value) for key, value in table.items()}
    abs_f = {alpha: [modulus(v) for v in c] for alpha, c in f.items()}
    M = linearize._solve_recursive(*route_inputs(n, D, moduli, abs_f))
    assert np.array_equal(M.to_array(), as_array(n, D, exact_h(n, D, moduli, abs_f)))
    assert (np.abs(want) <= M.to_array().real).all()


@pytest.mark.parametrize("shape", ["germ", "field"])
def test_every_route_is_exact_with_gaussian_coefficients(shape):
    # coefficients such as 1 + 2i, whose modulus is irrational: h only
    n, D = 2, 8
    table, f = draw_case(shape, n, D, 3, axis_only=False)
    exact, top = exact_premise(n, D, table, f)
    assert exact, float(top)
    assert any(v.re and v.im for c in f.values() for v in c)
    tab, fs = route_inputs(n, D, table, f)
    want = as_array(n, D, exact_h(n, D, table, f))
    for h in (linearize._solve_recursive(tab, fs), linearize._solve_fixedpoint(tab, fs),
              treesum._solve_tree(tab, fs)[0]):
        assert np.array_equal(h.to_array(), want)


def test_the_premise_rejects_a_case_past_53_bits():
    # the same kind of draw at n = 2 D = 14: M * 2^13 passes 2^53
    exact, top = exact_premise(2, 14, *draw_case("germ", 2, 14, 1))
    assert not exact and top * 2 ** 13 >= 2 ** 53


def test_the_table_of_ones_with_f_z_squared_gives_the_catalan_numbers():
    # H = z + H^2, so h_k = C_{k-1}; M = h, and C_20 * 2^20 < 2^53
    n, D = 1, 21
    table = {((d,), 0): Gaussian(1) for d in range(2, D + 1)}
    f = {(2,): [Gaussian(1)]}
    assert exact_premise(n, D, table, f)[0]
    catalan = [1]
    for k in range(1, D):
        catalan.append(catalan[-1] * 2 * (2 * k - 1) // (k + 1))
    want = np.zeros((1, D + 1), dtype=complex)
    want[0, 2:] = catalan[1:D]
    assert np.array_equal(as_array(n, D, exact_h(n, D, table, f)), want)
    tab, fs = route_inputs(n, D, table, f)
    for h in (linearize._solve_recursive(tab, fs), linearize._solve_fixedpoint(tab, fs),
              treesum._solve_tree(tab, fs)[0]):
        assert np.array_equal(h.to_array(), want)
    # the classical inversion of h = u G(h) + w, G(w) = w^2: the coefficient
    # of u^N is C_N w^(N+1), so at u = 1, w = z it is h
    orders = classical_lagrange_1d(ScalarSeries(1, 2 * D, {(2,): 1.0}), D - 1).orders
    assert [orders[N - 1].get((N + 1,)) for N in range(1, D)] == catalan[1:D]


# ---------------------------------------------------------------------------
# true spectra
# ---------------------------------------------------------------------------

# germ eigenvalues, the doubles at Gaussian-rational points of the unit
# circle: none of the points is a root of unity, and they are
# multiplicatively independent, so their small divisors are genuine
RATIONAL_LAMBDA = ((3 + 4j) / 5, (5 - 12j) / 13, (-8 + 15j) / 17)

# (spectrum, n, the (method, D) pairs checked); a tree solve at n=2 D=12
# takes seconds, so the tree stops at D=10 there
N2 = (("recursive", 12), ("fixedpoint", 12), ("tree", 10))
N3 = (("recursive", 6), ("fixedpoint", 6), ("tree", 6))
TRUE_CASES = [pytest.param(spectrum, n, routes, id=f"{spectrum}-n{n}") for spectrum, n, routes in [
    ("field", 2, N2), ("field", 3, N3), ("rational germ", 2, N2), ("rational germ", 3, N3),
    ("rotation germ", 2, N2 + (("recursive", 30),)), ("rotation germ", 3, N3)]]


def true_problem(tmp_path, spectrum, n, D):
    """The `treelin fixture --degree-f 3 --seed 1` problem of the kind, at truncation D.

    A rational germ keeps the germ fixture's f over the eigenvalues
    ``RATIONAL_LAMBDA``.
    """
    path = str(tmp_path / "fixture.json")
    assert cli.main(["fixture", spectrum.split()[-1], "--n", str(n), "--degree-f", "3",
                     "--trunc", str(D), "--seed", "1", "--out", path]) == 0
    problem = problem_from_doc(load_json(path))
    if spectrum == "rational germ":
        problem = Germ(GermSpectrum(RATIONAL_LAMBDA[:n]), problem.f)
    return problem


@pytest.mark.parametrize("spectrum,n,routes", TRUE_CASES)
def test_every_route_meets_the_exact_h_on_true_spectra(tmp_path, spectrum, n, routes):
    # |h - h_exact| <= 8 d eps M_alpha per coefficient, the constant of the
    # majorant test, fixed before the first run
    if "germ" in spectrum:
        pytest.importorskip("mpmath")
    problem = true_problem(tmp_path, spectrum, n, max(D for _, D in routes))
    exact = conjugacy(problem, problem.f.trunc)
    eps = np.finfo(float).eps
    for method, D in routes:
        slots = graded_indices(n, D)
        scale = eps * np.array([sum(alpha) for alpha in slots]) * np.abs(majorant(problem, D).to_array())
        gap = np.abs(solve(problem, D, method).h.to_array() - as_array(n, D, exact))
        ratio = gap / np.maximum(scale, np.finfo(float).tiny)
        j, s = np.unravel_index(ratio.argmax(), ratio.shape)
        per_degree = ", ".join(f"{d}: {ratio[:, [sum(a) == d for a in slots]].max():.3g}"
                               for d in range(2, D + 1))
        assert ratio.max() <= 8, (f"{method} at D={D}: |h - h_exact| / (d eps M) is {ratio.max():.3g} "
                                  f"at ({slots[s]}, {j}); worst per degree {per_degree}")


# ---------------------------------------------------------------------------
# the reach pass
# ---------------------------------------------------------------------------

SMALL = 1e-13

# (n, D, f's support as {alpha: axes}, the slots that hold a small divisor)
REACH_CASES = [
    # f = z1^2 e1 + z1 z2 e2 reaches (k, 0) on axis 0 and (a, b >= 1) on
    # axis 1 only; ((0, 3), 0) and ((2, 0), 1) are small and never reached
    (2, 9, {(2, 0): (0,), (1, 1): (1,)},
     [((3, 0), 0), ((2, 1), 1), ((0, 3), 0), ((2, 0), 1), ((5, 1), 1), ((6, 0), 0)]),
    (3, 6, {(2, 0, 0): (0, 2), (0, 1, 1): (1,), (1, 0, 1): (2,)},
     [((0, 0, 2), 0), ((3, 0, 0), 2), ((1, 1, 1), 1), ((0, 3, 0), 1), ((2, 0, 1), 2)]),
    # f = z^3 reaches odd degrees only; (9,) is reached past the clipped (5,)
    (1, 12, {(3,): (0,)}, [((4,), 0), ((5,), 0), ((9,), 0)]),
]


def reached_small(n, D, support, small):
    """The small slots that the reference's counts over f as 0/1 reach, by slot then axis.

    Every other divisor is 1, and a small slot counts as 0 for what it reaches.
    """
    f = {alpha: [int(j in axes) for j in range(n)] for alpha, axes in support.items()}
    hit = []

    def divide(beta, j, count):
        if (beta, j) in small:
            hit.append((beta, j))
            return 0
        return count

    recursion(n, D, f, divide)
    slot = {alpha: s for s, alpha in enumerate(graded_indices(n, D))}
    return sorted(hit, key=lambda key: (slot[key[0]], key[1]))


@pytest.mark.parametrize("n,D,support,small", REACH_CASES)
def test_the_reach_pass_records_exactly_the_reached_small_divisors(n, D, support, small):
    want = reached_small(n, D, support, set(small))
    assert want and len(want) < len(small)  # some small divisor is unreached
    divs = np.ones((n, len(graded_indices(n, D))), dtype=complex)
    slot = {alpha: s for s, alpha in enumerate(graded_indices(n, D))}
    for alpha, j in small:
        divs[j, slot[alpha]] = SMALL
    table = VectorSeries.from_array(n, D, divs)
    f = VectorSeries.from_coeffs(n, D, {alpha: [(1 + 2j) * (k in axes) for k in range(n)]
                                        for alpha, axes in support.items()})
    resolved, clipped = linearize._resolve_small_divisors(table, f, "clip")
    assert clipped == tuple((alpha, j, SMALL) for alpha, j in want)
    assert np.array_equal(resolved.to_array(), np.where(divs == SMALL, np.inf, divs))
    with pytest.raises(DivisorBelowTolerance) as info:
        linearize._resolve_small_divisors(table, f, "raise")
    assert (info.value.index, info.value.axis, info.value.modulus) == (*want[0], SMALL)
