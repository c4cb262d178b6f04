"""Series arithmetic: oracles, examples, and the ultrametric property suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from treelin import (
    CompositionError,
    ScalarSeries,
    TruncationMismatch,
    VectorSeries,
    formal_derivative,
    shift_expand,
    weighted_norm,
)
from treelin import series
from treelin.families import SeriesFamily
from treelin.indices import (
    abs_degree,
    degree,
    dominates,
    iter_indices,
    multi_binom,
    signed_degree,
    slot_count,
    unit_index,
)
from treelin.series import PowerTable, _basis, _pair_table, _PairTable, product_slice

from conftest import (
    approx_equal,
    assert_series_close,
    random_dyadic_vector_series,
    random_scalar_series,
    random_vector_series,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def convolve_oracle(f: ScalarSeries, g: ScalarSeries) -> dict:
    """Brute-force Cauchy product over all stored term pairs."""
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            if degree(a) + degree(b) <= f.trunc:
                k = tuple(x + y for x, y in zip(a, b))
                out[k] = out.get(k, 0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def compose_oracle(F: VectorSeries, G: VectorSeries) -> VectorSeries:
    """Composition by explicit monomial substitution, no power caching."""
    n, D = F.n, F.trunc
    acc = VectorSeries.zero(n, D)
    for alpha, vec in F.coeff_items():
        power = ScalarSeries.one(n, D)
        for i, e in enumerate(alpha):
            for _ in range(e):
                power = power.multiply(G.components[i])
        acc = acc + VectorSeries([power.scale(c) for c in vec])
    return acc


# ---------------------------------------------------------------------------
# index helpers and valuation
# ---------------------------------------------------------------------------


def test_degree_accessors():
    assert degree((2, 1)) == 3
    assert signed_degree((-2, 3)) == 1
    assert abs_degree((-2, 3)) == 5
    assert dominates((2, 1), (1, 1)) and not dominates((2, 1), (1, 2))
    assert multi_binom((2, 1), (1, 1)) == 2
    assert multi_binom((2, 1), (3, 0)) == 0


def test_valuation_examples():
    z2 = VectorSeries.from_coeffs(1, 6, {(2,): (1.0,)})
    assert z2.valuation() == 2
    zero = VectorSeries.zero(1, 6)
    assert zero.valuation() == math.inf
    assert zero.znorm() == 0.0
    f = VectorSeries.from_coeffs(2, 6, {(1, 0): (3.0, 0), (1, 1): (1.0, 0)})
    assert f.valuation() == 1


def test_truncation_drops_high_terms_silently():
    s = ScalarSeries(1, 2, {(1,): 1.0, (5,): 9.0})
    assert s.get((5,)) == 0
    assert s.get((1,)) == 1.0


def test_mixed_truncation_rejected():
    a = ScalarSeries(1, 3, {(1,): 1.0})
    b = ScalarSeries(1, 4, {(1,): 1.0})
    with pytest.raises(TruncationMismatch):
        a.multiply(b)


# ---------------------------------------------------------------------------
# the dense storage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,D", [(1, 12), (2, 8), (3, 6)])
def test_mul_scalar_series_is_the_per_component_multiply(rng, n, D):
    f = random_vector_series(rng, n, D, min_degree=0, density=0.7)
    s = random_scalar_series(rng, n, D, density=0.6)
    got = f.mul_scalar_series(s).to_array()
    assert got.shape == (n, slot_count(n, D))
    for j in range(n):
        assert got[j].tobytes() == f.component(j).multiply(s).vector.tobytes()


def test_vector_series_is_one_array_with_row_views(rng):
    n, D = 3, 5
    array = random_vector_series(rng, n, D, density=0.5).to_array().copy()
    f = VectorSeries.from_array(n, D, array)
    assert f.to_array() is array
    for j, comp in enumerate(f.components):
        assert np.shares_memory(comp.vector, array[j])
        assert comp.vector.tobytes() == array[j].tobytes()
        assert np.shares_memory(f.component(j).vector, array[j])
    # the component constructor stacks the rows
    assert VectorSeries(f.components) == f


def dict_loop_derivative(f: VectorSeries, beta) -> VectorSeries:
    """Oracle: the binomial-weighted derivative, term by term over each component's dict."""
    comps = []
    for comp in f.components:
        out = {}
        for alpha, c in comp.items():
            if dominates(alpha, beta):
                out[tuple(a - b for a, b in zip(alpha, beta))] = c * multi_binom(alpha, beta)
        comps.append(ScalarSeries(f.n, f.trunc, out))
    return VectorSeries(comps)


@pytest.mark.parametrize("n,D", [(1, 20), (2, 9), (3, 6)])
def test_vector_formal_derivative_is_the_dict_loop(rng, n, D):
    f = random_vector_series(rng, n, D, min_degree=2, density=0.5)
    family = shift_expand(f)
    nonzero = set()
    for beta in iter_indices(n, D):
        want = dict_loop_derivative(f, beta)
        assert formal_derivative(f, beta).to_array().tobytes() == want.to_array().tobytes()
        if not want.is_zero():
            nonzero.add(beta)
            assert family.coeffs[beta].to_array().tobytes() == want.to_array().tobytes()
    assert set(family.coeffs) == nonzero


def test_approx_equal_scales_each_component():
    f = VectorSeries.from_coeffs(2, 3, {(2, 0): (1e6, 1.0)})
    # off by 1e-6 in the small component: within 1e-9 of the largest
    # coefficient overall, but not of that component's own
    assert not approx_equal(f, VectorSeries.from_coeffs(2, 3, {(2, 0): (1e6, 1.0 + 1e-6)}))
    assert approx_equal(f, VectorSeries.from_coeffs(2, 3, {(2, 0): (1e6 + 1e-4, 1.0)}))


def test_mismatched_series_rejected(rng):
    f = random_vector_series(rng, 2, 5)
    for other in (random_vector_series(rng, 2, 6), random_vector_series(rng, 3, 5)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, approx_equal):
            with pytest.raises(TruncationMismatch):
                op(f, other)
    for s in (random_scalar_series(rng, 2, 6), random_scalar_series(rng, 3, 5)):
        with pytest.raises(TruncationMismatch):
            f.mul_scalar_series(s)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_multiply_simple():
    one_plus = ScalarSeries(1, 2, {(0,): 1.0, (1,): 1.0})
    one_minus = ScalarSeries(1, 2, {(0,): 1.0, (1,): -1.0})
    prod = one_plus.multiply(one_minus)
    assert prod == ScalarSeries(1, 2, {(0,): 1.0, (2,): -1.0})


def test_multiply_valuation_additivity_monomials():
    f = ScalarSeries.monomial(1, 10, (2,))
    g = ScalarSeries.monomial(1, 10, (3,))
    assert f.multiply(g).valuation() == 5


@pytest.mark.parametrize("n", [1, 2])
def test_multiply_matches_convolution_oracle(rng, n):
    for _ in range(10):
        f = random_scalar_series(rng, n, 6, max_degree=3, density=0.8)
        g = random_scalar_series(rng, n, 6, max_degree=3, density=0.8)
        prod = f.multiply(g)
        oracle = convolve_oracle(f, g)
        assert set(prod.support) == set(oracle)
        for k, v in oracle.items():
            assert abs(prod.get(k) - v) <= 1e-12 * max(1.0, abs(v))


def test_multiply_kernel_matches_oracles(rng):
    # full density exercises every pair of the product table
    for n, D in ((1, 12), (2, 12), (3, 8)):
        f = random_scalar_series(rng, n, D, density=1.0)
        g = random_scalar_series(rng, n, D, density=1.0)
        prod = f.multiply(g)
        oracle = convolve_oracle(f, g)
        assert set(prod.support) == set(oracle)
        for k, v in oracle.items():
            assert abs(prod.get(k) - v) <= 1e-12 * max(1.0, abs(v))
    # one variable at high degree is exactly the convolution of the coefficients
    f = random_scalar_series(rng, 1, 300, density=1.0)
    g = random_scalar_series(rng, 1, 300, density=0.5)
    a = np.array([f.get((k,)) for k in range(301)])
    b = np.array([g.get((k,)) for k in range(301)])
    got = np.array([f.multiply(g).get((k,)) for k in range(301)])
    assert np.array_equal(got, np.convolve(a, b)[:301])


@pytest.mark.parametrize("n,D,d", [(1, 20, 9), (2, 12, 5), (3, 8, 4)])
def test_product_low_degrees_ignore_high_terms(rng, n, D, d):
    # the summation order never depends on values or support, so terms of
    # degree > d in one operand leave the degree <= d part bitwise unchanged
    f = random_scalar_series(rng, n, D, max_degree=d, density=0.7)
    g = random_scalar_series(rng, n, D, density=0.7)
    f_more = f + random_scalar_series(rng, n, D, min_degree=d + 1)
    keep = slot_count(n, d)
    low = f.multiply(g).vector[:keep]
    assert low.tobytes() == f_more.multiply(g).vector[:keep].tobytes()
    swapped = g.multiply(f).vector[:keep]
    assert swapped.tobytes() == g.multiply(f_more).vector[:keep].tobytes()
    # and the truncation to d computes the same prefix from a prefix table
    assert low.tobytes() == f.truncate(d).multiply(g.truncate(d)).vector.tobytes()


@pytest.mark.parametrize("n,D", [(1, 40), (2, 12), (3, 8), (2, 30), (3, 20), (2, 80)])
def test_product_slice_is_the_degree_slice_of_multiply(rng, n, D):
    # full density, so every pair of the table carries a nonzero term
    f = random_scalar_series(rng, n, D)
    g = random_scalar_series(rng, n, D)
    full = f.multiply(g).vector
    for d in range(1, D + 1):
        got = product_slice(f.vector, g.vector, n, d)
        assert got.tobytes() == full[slot_count(n, d - 1):slot_count(n, d)].tobytes(), d


# supports whose parent chains (alpha - e_i, i the first nonzero axis) share prefixes
POWER_SUPPORTS = [
    (1, 16, [(0,), (1,), (2,), (5,), (3,), (7,)]),
    (2, 12, [(0, 0), (2, 1), (3, 0), (1, 2), (0, 3), (1, 0), (2, 3), (0, 5)]),
    (3, 8, [(0, 0, 0), (1, 1, 1), (2, 1, 0), (0, 2, 2), (1, 0, 3), (3, 0, 0), (0, 1, 0),
            (1, 2, 2), (0, 0, 4)]),
]


def _power_chain(x, alpha, n, D):
    """x^alpha as the chain of full multiply products along first-nonzero-axis parents."""
    if sum(alpha) == 0:
        return ScalarSeries.one(n, D)
    i = next(k for k, a in enumerate(alpha) if a > 0)
    parent = tuple(a - (k == i) for k, a in enumerate(alpha))
    return _power_chain(x, parent, n, D).multiply(x.component(i))


def _power_argument(rng, n, D):
    """A dense vector series of valuation 1, as the solvers' arguments have."""
    return VectorSeries([random_scalar_series(rng, n, D, min_degree=1) for _ in range(n)])


@pytest.mark.parametrize("n,D,alphas", POWER_SUPPORTS)
def test_power_table_is_the_chain_of_full_products(rng, n, D, alphas):
    x = _power_argument(rng, n, D)
    table = PowerTable(x.to_array(), alphas, D).fill_all()
    for alpha in alphas:
        want = _power_chain(x, alpha, n, D).vector
        assert table.power[alpha].tobytes() == want.tobytes(), alpha


@pytest.mark.parametrize("n,D,alphas", POWER_SUPPORTS)
def test_power_table_fill_reads_no_degree_d_slot_of_x(rng, n, D, alphas):
    x = _power_argument(rng, n, D).to_array().copy()
    table = PowerTable(x, alphas, D)
    for d in range(2, D + 1):
        table.fill(d)
        lo, hi = slot_count(n, d - 1), slot_count(n, d)
        filled = {a: p[: hi].copy() for a, p in table.power.items() if sum(a) >= 2}
        x[:, lo:hi] = 1e3 * (rng.standard_normal((n, hi - lo)) + 1j)
        table.fill(d)
        for alpha, before in filled.items():
            assert table.power[alpha][: hi].tobytes() == before.tobytes(), (alpha, d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_slice_at_degree_zero_is_the_constant_slot(rng, n):
    # the fixed point's first step needs slot 0, a one-pair block for n >= 2
    for D in (0, 1, 6):
        for _ in range(20):
            f, g = random_scalar_series(rng, n, D), random_scalar_series(rng, n, D)
            got = product_slice(f.vector, g.vector, n, 0)
            assert got.tobytes() == f.multiply(g).vector[:1].tobytes(), D


def _one_pass_pairs(n, D):
    """(left, right, out, upto) of all pairs of degree <= D in one pass, listed
    by left slot, then right slot; upto[d] is the first slot of degree d."""
    exps = np.array(_basis(n, D).indices[: slot_count(n, D)], dtype=np.intp)
    upto = np.array([0] + [slot_count(n, d) for d in range(D + 1)], dtype=np.intp)
    counts = upto[D + 1 - exps.sum(axis=1)]
    left = np.repeat(np.arange(len(exps), dtype=np.intp), counts)
    right = np.arange(len(left), dtype=np.intp)
    right -= np.repeat(np.cumsum(counts) - counts, counts)
    key = exps @ (D + 1) ** np.arange(n - 1, -1, -1, dtype=np.intp)
    by_key = np.argsort(key)
    out = by_key[np.searchsorted(key[by_key], key[left] + key[right])]
    return left, right, out, upto


def _interleaved(out):
    """The real and imaginary output indices of each pair, interleaved."""
    out2 = np.repeat(2 * out, 2)
    out2[1::2] += 1
    return out2


def _one_pass_table(n, D):
    """(left, right, out2, upto) of the pair table as one stable sort of all pairs
    of degree <= D by output slot leaves it; upto[d] is the first slot of degree d."""
    left, right, out, upto = _one_pass_pairs(n, D)
    order = np.argsort(out, kind="stable")
    return left[order], right[order], _interleaved(out[order]), upto


TABLE_SIZES = [(2, 10), (2, 30), (3, 30)]


@pytest.mark.parametrize("n,D", TABLE_SIZES)
def test_pair_table_runs_are_the_one_pass_table(n, D):
    # each output-degree block is the one-pass listing's pairs with outputs of
    # that degree, in listing order, whatever blocks the table built before it:
    # degrees ascending, descending and shuffled
    left, right, out, upto = _one_pass_pairs(n, D)
    orders = (range(D + 1), range(D, -1, -1), np.random.default_rng(D).permutation(D + 1).tolist())
    for order in orders:
        table = _PairTable(n)
        for d in order:
            of_d = (upto[d] <= out) & (out < upto[d + 1])
            want = (left[of_d], right[of_d], _interleaved(out[of_d] - upto[d]))
            for got, wanted in zip(table.block(d), want):
                assert got.dtype == wanted.dtype
                assert got.tobytes() == wanted.tobytes(), (d, order)


@pytest.mark.parametrize("n,D", TABLE_SIZES)
def test_multiply_is_one_pass_over_the_table(rng, n, D):
    # a product over the blocks is one bincount pass over the whole table, here
    # with a zero constant term, as every product the solvers take has: slot 0 is
    # a one-pair block, and numpy can round a one-element product differently
    f = random_scalar_series(rng, n, D, min_degree=1)
    g = random_scalar_series(rng, n, D)
    left, right, out2, _ = _one_pass_table(n, D)
    terms = f.vector[left]
    terms *= g.vector[right]
    want = np.bincount(out2, weights=terms.view(np.float64), minlength=2 * slot_count(n, D))
    assert f.multiply(g).vector.tobytes() == want.tobytes()


def test_product_slice_refuses_an_operand_without_degree_d(rng):
    f = random_scalar_series(rng, 2, 6)
    with pytest.raises(IndexError):
        product_slice(f.vector[: slot_count(2, 5)], f.vector, 2, 6)
    with pytest.raises(IndexError):
        product_slice(f.vector, f.vector[: slot_count(2, 5)], 2, 6)


def _held_bytes(table):
    """Bytes of every array a pair table holds, its block's arrays included."""
    held = [v for value in vars(table).values()
            for v in (value if isinstance(value, tuple) else (value,))]
    return sum(v.nbytes for v in held if isinstance(v, np.ndarray))


def test_the_pair_table_keeps_only_its_newest_block(rng):
    n = 2
    series._PAIR_TABLES.pop(n, None)
    table = _pair_table(n)
    for D in (6, 12, 6):
        f = random_scalar_series(rng, n, D)
        f.multiply(f)
    assert _pair_table(n) is table
    fresh = _PairTable(n).block(6)
    assert table.top == 6
    for got, want in zip(table.kept, fresh):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # one block of C(2n - 1 + d, 2n - 1) pairs at 32 bytes (left, right and
    # two output indices), the 16-byte terms of the largest block built, and
    # (n - 1) int32 tail sums per slot of the largest degree seen
    pairs = math.comb(2 * n - 1 + 6, 2 * n - 1)
    assert len(fresh[0]) == pairs
    largest = math.comb(2 * n - 1 + 12, 2 * n - 1)
    assert _held_bytes(table) == 32 * pairs + 16 * largest + 4 * (n - 1) * slot_count(n, 12)


def test_multiply_commutative_and_associative(rng):
    f = random_scalar_series(rng, 2, 5, max_degree=3, density=0.7)
    g = random_scalar_series(rng, 2, 5, max_degree=3, density=0.7)
    h = random_scalar_series(rng, 2, 5, max_degree=2, density=0.7)
    assert_series_close(f.multiply(g), g.multiply(f), rel=1e-12)
    assert_series_close(
        f.multiply(g).multiply(h), f.multiply(g.multiply(h)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def test_compose_identity_is_neutral(rng):
    G = random_vector_series(rng, 2, 5, min_degree=1, density=0.6)
    ident = VectorSeries.identity(2, 5)
    assert_series_close(ident.compose(G), G, rel=1e-12)


def test_compose_hand_example():
    # (z + z^2)^2 truncated at 4 = z^2 + 2 z^3 + z^4
    F = VectorSeries.from_coeffs(1, 4, {(2,): (1.0,)})
    G = VectorSeries.from_coeffs(1, 4, {(1,): (1.0,), (2,): (1.0,)})
    expected = VectorSeries.from_coeffs(1, 4, {(2,): (1.0,), (3,): (2.0,), (4,): (1.0,)})
    assert_series_close(F.compose(G), expected, rel=1e-12)


def test_compose_zero_outer():
    Z = VectorSeries.zero(2, 4)
    G = VectorSeries.identity(2, 4)
    assert Z.compose(G).is_zero()


def test_compose_rejects_valuation_zero():
    F = VectorSeries.identity(1, 4)
    G = VectorSeries.from_coeffs(1, 4, {(0,): (1.0,)})
    with pytest.raises(CompositionError):
        F.compose(G)


def test_compose_matches_oracle_and_valuation(rng):
    for n in (1, 2):
        F = random_vector_series(rng, n, 5, min_degree=1, density=0.7)
        G = random_vector_series(rng, n, 5, min_degree=1, density=0.7)
        got = F.compose(G)
        assert_series_close(got, compose_oracle(F, G), rel=1e-11)
        if not got.is_zero():
            assert got.valuation() >= F.valuation()


def test_compose_associative(rng):
    F = random_vector_series(rng, 1, 6, min_degree=1, max_degree=3)
    G = random_vector_series(rng, 1, 6, min_degree=1, max_degree=3)
    H = random_vector_series(rng, 1, 6, min_degree=1, max_degree=2)
    assert_series_close(
        F.compose(G).compose(H), F.compose(G.compose(H)), rel=1e-10
    )


# ---------------------------------------------------------------------------
# formal derivative
# ---------------------------------------------------------------------------


def test_formal_derivative_examples():
    z3 = ScalarSeries.monomial(1, 5, (3,))
    assert formal_derivative(z3, (1,)) == ScalarSeries(1, 5, {(2,): 3.0})
    assert formal_derivative(z3, (2,)) == ScalarSeries(1, 5, {(1,): 3.0})
    m = ScalarSeries.monomial(2, 5, (2, 1))
    assert formal_derivative(m, (1, 1)) == ScalarSeries(2, 5, {(1, 0): 2.0})


def test_formal_derivative_composition_identity(rng):
    # binom(a+b, a) * delta^(a+b) = delta^a delta^b, on the exact range
    f = random_scalar_series(rng, 2, 6, density=0.6)
    a, b = (1, 0), (1, 1)
    lhs = formal_derivative(formal_derivative(f, b), a)
    rhs = formal_derivative(f, (2, 1)).scale(multi_binom((2, 1), a))
    assert_series_close(lhs, rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# shift expansion
# ---------------------------------------------------------------------------


def test_shift_expand_quadratic():
    f = VectorSeries.from_coeffs(1, 4, {(2,): (1.0,)})
    fam = shift_expand(f)
    assert_series_close(fam.coeff((0,)), f, rel=1e-15)
    assert_series_close(
        fam.coeff((1,)), VectorSeries.from_coeffs(1, 4, {(1,): (2.0,)}), rel=1e-15
    )
    assert_series_close(
        fam.coeff((2,)), VectorSeries.from_coeffs(1, 4, {(0,): (1.0,)}), rel=1e-15
    )
    # norms: ||g0|| = ||f|| = 1/4, ||g1|| = 1/2 = 2 ||f||
    assert fam.coeff((0,)).znorm() == 0.25
    assert fam.coeff((1,)).znorm() == 0.5


def test_shift_expand_zero():
    fam = shift_expand(VectorSeries.zero(2, 4))
    assert fam.is_zero()


def test_shift_expand_rejects_low_valuation():
    f = VectorSeries.from_coeffs(1, 4, {(1,): (1.0,)})
    with pytest.raises(ValueError):
        shift_expand(f)


def test_shift_expand_is_composition_with_shift(rng):
    # evaluating the family at v reproduces f(z + v) coefficient-wise:
    # check against direct composition f o (id + v)
    f = random_vector_series(rng, 2, 5, min_degree=2, max_degree=4, density=0.8)
    v = random_vector_series(rng, 2, 5, min_degree=2, max_degree=3, density=0.5)
    fam = shift_expand(f)
    direct = f.compose(VectorSeries.identity(2, 5) + v)
    assert_series_close(fam.evaluate(v), direct, rel=1e-10)


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------


def test_weighted_norm_examples():
    z2 = ScalarSeries.monomial(1, 6, (2,))
    assert weighted_norm(z2, 0.5) == 0.25
    allk = ScalarSeries(1, 6, {(k,): 1.0 for k in range(7)})
    assert weighted_norm(allk, 1.0) == 1.0


def test_family_weighted_norm_shift_bound(rng):
    # ultrametric bound: || shift family of f ||_(1/2) <= ||f||
    for _ in range(20):
        f = random_vector_series(rng, 2, 5, min_degree=2, density=0.5)
        fam = shift_expand(f)
        assert fam.weighted_norm(0.5) <= f.znorm() + 1e-15


def test_family_cauchy_estimate(rng):
    # || delta^alpha F ||_r <= ||F||_r / r^|alpha| with z-adic coefficient norms
    for _ in range(20):
        f = random_vector_series(rng, 2, 5, min_degree=2, density=0.6)
        fam = shift_expand(f)
        for r in (0.3, 0.5, 1.0):
            base = fam.weighted_norm(r)
            for alpha in [(1, 0), (0, 1), (1, 1), (2, 0)]:
                assert fam.delta(alpha).weighted_norm(r) <= base / r ** sum(alpha) + 1e-15


# ---------------------------------------------------------------------------
# ultrametric property suite
# ---------------------------------------------------------------------------


def test_ultrametric_triangle(rng):
    for _ in range(200):
        f = random_vector_series(rng, 1, 6, min_degree=rng.integers(0, 4), density=0.5)
        g = random_vector_series(rng, 1, 6, min_degree=rng.integers(0, 4), density=0.5)
        s = f + g
        assert s.znorm() <= max(f.znorm(), g.znorm()) + 1e-15
        if f.znorm() != g.znorm():
            assert s.znorm() == max(f.znorm(), g.znorm())


def test_valuation_additivity(rng):
    for _ in range(100):
        va, vb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = random_scalar_series(rng, 2, 8, min_degree=va, density=0.6)
        g = random_scalar_series(rng, 2, 8, min_degree=vb, density=0.6)
        if f.is_zero() or g.is_zero():
            continue
        if f.valuation() + g.valuation() <= 8:
            assert f.multiply(g).valuation() == f.valuation() + g.valuation()


def _random_family(rng, n, inner, outer, density=0.5):
    # dyadic coefficients keep every cancellation exact, so z-adic norms of
    # differences are meaningful (no roundoff residue at valuation 0)
    coeffs = {}
    for beta in iter_indices(n, outer):
        if rng.uniform() <= density:
            coeffs[beta] = random_dyadic_vector_series(
                rng, n, inner, max_degree=inner, density=0.4
            )
    return SeriesFamily(n, inner, outer, coeffs)


def test_taylor_inequalities_on_families(rng):
    """First and second order Taylor bounds in the ultrametric weighted norms."""
    n, inner, outer = 1, 4, 3
    checked = 0
    for _ in range(60):
        F = _random_family(rng, n, inner, outer, density=0.7)
        G = _random_family(rng, n, inner, outer, density=0.6)
        H = _random_family(rng, n, inner, outer, density=0.6)
        s = 0.5
        r = max(G.weighted_norm(s), H.weighted_norm(s))
        if r == 0 or F.is_zero():
            continue
        FG = F.compose(G)
        FGH = F.compose(G + H)
        lhs1 = (FGH - FG).weighted_norm(s)
        rhs1 = F.weighted_norm(r) / r * H.weighted_norm(s)
        assert lhs1 <= rhs1 * (1 + 1e-12), (lhs1, rhs1)
        # second order: subtract the differential term sum_i d_i F(G) H_i
        DF_G_H = None
        for i in range(n):
            term_fam = F.delta(unit_index(n, i)).compose(G)
            prod = {}
            for b1, g1 in term_fam.items():
                for b2, g2 in H.items():
                    if sum(b1) + sum(b2) > outer:
                        continue
                    k = tuple(x + y for x, y in zip(b1, b2))
                    contrib = g1.mul_scalar_series(g2.components[i])
                    prod[k] = prod[k] + contrib if k in prod else contrib
            piece = SeriesFamily(n, inner, outer, prod)
            DF_G_H = piece if DF_G_H is None else DF_G_H + piece
        lhs2 = (FGH - FG - DF_G_H).weighted_norm(s)
        rhs2 = F.weighted_norm(r) / r ** 2 * H.weighted_norm(s) ** 2
        assert lhs2 <= rhs2 * (1 + 1e-12), (lhs2, rhs2)
        checked += 1
    assert checked >= 20
