"""Problems that no route rounds: fabricated dyadic tables, checked against exact arithmetic.

Each route is ``(table, f) -> h``, so it can be fed a table that no
spectrum gives.  With table entries from {±1, ±2, ±1/2, ±i, ±2i} and f
with Gaussian-integer coefficients, every sum, product and quotient is a
dyadic Gaussian rational.  The reference here is a ``fractions.Fraction``
dict recursion that shares no code with ``series``, ``divisors`` or
``treesum``.  Whether a case is exact in doubles is decided from the
problem alone: the majorant M over |table| and |f| bounds every partial
sum, and a degree-D slot sits over at most D - 1 divisions, each of which
halves the finest dyadic unit at most.  So if max M * 2^(D-1) < 2^53, no
route rounds, and each must equal the reference bit for bit.

The reach pass of ``linearize._resolve_small_divisors`` is the same
recursion over f as 0/1 with every divisor 1, so it is checked against a
Fraction count recursion here too.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from treelin import DivisorBelowTolerance, ScalarSeries, VectorSeries, classical_lagrange_1d
from treelin import linearize, treesum
from treelin.series import graded_indices

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
HALF = Fraction(1, 2)
# the table entries: a germ of a rotation spectrum has complex divisors,
# a field of a real spectrum real ones
GERM_ENTRIES = [(s * m, Fraction(0)) for s in (1, -1) for m in (1, 2, HALF)] + \
               [(Fraction(0), s * m) for s in (1, -1) for m in (1, 2)]
FIELD_ENTRIES = [(s * m, Fraction(0)) for s in (1, -1) for m in (1, 2, HALF)]


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions
# ---------------------------------------------------------------------------


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def _is_zero(a):
    return a[0] == 0 and a[1] == 0


def _modulus(a):
    """|a| for a real or imaginary a: exact."""
    assert a[0] == 0 or a[1] == 0, a
    return (abs(a[0]) + abs(a[1]), Fraction(0))


# ---------------------------------------------------------------------------
# the reference recursion
# ---------------------------------------------------------------------------


def _monomials(n, d):
    """The exponent tuples of degree d, in any order."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in _monomials(n - 1, d - a)]


def exact_recursion(n, D, f, divide):
    """x through degree D from x_d = divide(alpha, j, [f(z + x)]_{alpha, j}), in Fractions.

    ``f`` maps an exponent tuple to its n Gaussian coefficients.  The powers
    (z + x)^alpha are built degree by degree, each as its prefix power times
    the factor of its last nonzero axis; degree d of a power reads the
    factors only below degree d.  Returns {(alpha, j): value} over the
    nonzero values.
    """
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    # factor[k][m]: degree m of z_k + x_k, as {monomial: value}
    factor = [{1: {unit[k]: ONE}} for k in range(n)]
    chain = {}  # alpha -> (prefix, axis)
    for alpha in f:
        while sum(alpha) >= 2 and alpha not in chain:
            k = max(i for i, a in enumerate(alpha) if a)
            chain[alpha] = (tuple(a - (i == k) for i, a in enumerate(alpha)), k)
            alpha = chain[alpha][0]
    order = sorted(chain, key=sum)
    power = {alpha: {} for alpha in chain}  # power[alpha][m]: degree m of (z + x)^alpha

    def graded(alpha, m):
        if sum(alpha) == 1:
            return factor[alpha.index(1)].get(m, {})
        return power[alpha].get(m, {})

    x = {}
    for d in range(2, D + 1):
        for alpha in order:
            up, k = chain[alpha]
            out = {}
            for m in range(sum(up), d):
                for mu, u in graded(up, m).items():
                    for nu, v in factor[k].get(d - m, {}).items():
                        key = tuple(a + b for a, b in zip(mu, nu))
                        out[key] = _add(out.get(key, ZERO), _mul(u, v))
            power[alpha][d] = out
        for k in range(n):
            factor[k][d] = {}
        for beta in _monomials(n, d):
            for j in range(n):
                value = ZERO
                for alpha, c in f.items():
                    if 1 < sum(alpha) <= d and not _is_zero(c[j]):
                        value = _add(value, _mul(c[j], graded(alpha, d).get(beta, ZERO)))
                value = divide(beta, j, value)
                if not _is_zero(value):
                    x[(beta, j)] = factor[j][d][beta] = value
    return x


def as_array(n, D, values):
    """A {(alpha, j): Gaussian rational} dict as a route's (n, slots) complex array."""
    out = np.zeros((n, len(graded_indices(n, D))), dtype=complex)
    for s, alpha in enumerate(graded_indices(n, D)):
        for j in range(n):
            re, im = values.get((alpha, j), ZERO)
            out[j, s] = complex(float(re), float(im))
    return out


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
    for d in range(2, f_degree + 1):
        for alpha in _monomials(n, d):
            if d > 2 and rng.random() > density:  # degree 2 is dense
                continue
            c = [ZERO] * n
            while all(map(_is_zero, c)):
                c = [_draw(rng, axis_only) for _ in range(n)]
            f[alpha] = c
    return table, f


def _draw(rng, axis_only):
    re, im = rng.randint(-2, 2), rng.randint(-2, 2)
    if axis_only:
        re, im = (re, 0) if rng.random() < 0.5 else (0, re)
    return (Fraction(re), Fraction(im))


def exact_h(n, D, table, f):
    return exact_recursion(n, D, f, lambda beta, j, value: _div(value, table[(beta, j)]))


def exact_premise(n, D, table, f):
    """max M * 2^(D-1) < 2^53, M the majorant over |table| and a bound |Re| + |Im| of |f|."""
    bound = {alpha: [(abs(re) + abs(im), Fraction(0)) for re, im in c] for alpha, c in f.items()}
    M = exact_recursion(n, D, bound, lambda beta, j, value: _div(value, _modulus(table[(beta, j)])))
    top = max((m[0] for m in M.values()), default=Fraction(0))
    return top * 2 ** (D - 1) < 2 ** 53, top


def route_inputs(n, D, table, f):
    """The table and f as the routes take them: vector series at truncation D."""
    return as_series(n, D, table), as_series(n, D, {(alpha, j): c[j] for alpha, c in f.items()
                                                  for j in range(n) if not _is_zero(c[j])})


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
    moduli = {key: _modulus(value) for key, value in table.items()}
    abs_f = {alpha: [_modulus(v) for v in c] for alpha, c in f.items()}
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
    assert any(c[0] and c[1] for cs in f.values() for c in cs)
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
    table = {((d,), 0): ONE for d in range(2, D + 1)}
    f = {(2,): [ONE]}
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
    """The small slots that the Fraction count recursion over f as 0/1 reaches, by slot then axis.

    Every other divisor is 1, and a small slot counts as 0 for what it reaches.
    """
    f = {alpha: [ONE if j in axes else ZERO for j in range(n)] for alpha, axes in support.items()}
    hit = []

    def divide(beta, j, value):
        if (beta, j) in small:
            if not _is_zero(value):
                hit.append((beta, j))
            return ZERO
        return value

    exact_recursion(n, D, f, divide)
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
