"""Property tests: the three solvers agree on thinned fixtures, over fixed and drawn spectra."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

from treelin import (
    DivisorBelowTolerance,
    FieldSpectrum,
    Germ,
    GermSpectrum,
    VectorField,
    VectorSeries,
    cli,
    majorant,
)
from treelin.divisors import divisor_table
from treelin.documents import load_json, problem_from_doc
from treelin.indices import iter_indices
from treelin.linearize import solve
from treelin.series import graded_indices

from reference import as_array, conjugacy


def thinned_fixture(kind: str, n: int, D: int, seed: int, keep: int):
    """A `treelin fixture` problem whose f keeps the indices picked by the bits of ``keep``.

    The first index of degree 2 always stays, so f is never zero.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fixture.json")
        assert cli.main(["fixture", kind, "--n", str(n), "--degree-f", "3",
                         "--trunc", str(D), "--seed", str(seed), "--out", path]) == 0
        problem = problem_from_doc(load_json(path))
    items = problem.f.coeff_items()
    coeffs = {alpha: vec for i, (alpha, vec) in enumerate(items)
              if i == 0 or keep >> i & 1}
    f = VectorSeries.from_coeffs(n, D, coeffs)
    return (Germ if kind == "germ" else VectorField)(problem.spectrum, f)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["germ", "field"]),
    n_and_D=st.one_of(
        st.tuples(st.just(1), st.integers(3, 9)),
        st.tuples(st.just(2), st.integers(3, 5)),
    ),
    seed=st.integers(1, 2**31 - 1),
    keep=st.integers(0, 2**14 - 1),
)
def test_three_solvers_agree_on_thinned_fixtures(kind, n_and_D, seed, keep):
    n, D = n_and_D
    problem = thinned_fixture(kind, n, D, seed, keep)
    rec = solve(problem, D, "recursive").h
    scale = max(1.0, rec.max_abs())
    for method in ("tree", "fixedpoint"):
        other = solve(problem, D, method).h
        assert (other - rec).max_abs() <= 1e-10 * scale, method


def near_resonant_spectrum(kind: str, omega, alpha, j: int, delta: float, turn: int):
    """The spectrum ``omega`` with one entry moved so that alpha.omega - omega_j is delta.

    For a germ it holds mod 1, after ``turn`` whole turns that spread the
    moved rotation number over (0, 1), and the divisor at (alpha, j) has
    modulus about 2 pi |delta|; for a field the divisor is delta itself.
    """
    coef = [a - (i == j) for i, a in enumerate(alpha)]
    i = max(range(len(alpha)), key=lambda k: abs(coef[k]))
    rest = sum(c * w for k, (c, w) in enumerate(zip(coef, omega)) if k != i)
    omega = list(omega)
    if kind == "germ":
        omega[i] = ((delta + turn % abs(coef[i]) - rest) / coef[i]) % 1.0
        return GermSpectrum.from_rotation(omega)
    omega[i] = (delta - rest) / coef[i]
    return FieldSpectrum(tuple(omega))


def _solve_or_witness(problem, D, method, mode):
    try:
        return solve(problem, D, method, on_small_divisor=mode)
    except DivisorBelowTolerance as exc:
        return (exc.index, exc.axis, exc.modulus)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["germ", "field"]),
    n=st.integers(1, 2),
    D=st.integers(3, 6),
    seed=st.integers(1, 2**31 - 1),
    keep=st.integers(0, 2**14 - 1),
    omega=st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2, unique=True),
    data=st.data(),
)
def test_tree_and_recursive_agree_on_drawn_spectra(kind, n, D, seed, keep, omega, data):
    """Fixture coefficients over drawn spectra, half of them with one resonance within 1e-9..1e-14.

    Where every divisor met clears the tolerance the three methods agree.
    Otherwise raise mode names the same witness for all three, and clip
    mode records the same lines and gives the same h.  Exact resonances,
    which simple drawn values such as (-1, 0.5) give, are kept: the
    decision is made once, in ``solve``, by what f's support reaches.
    """
    problem = thinned_fixture(kind, n, D, seed, keep)
    # a planar field keeps the fixture's normalization omega_1 = -1
    omega = [-1.0, omega[1]] if kind == "field" and n == 2 else omega[:n]
    if data.draw(st.booleans(), label="near resonance"):
        momenta = list(iter_indices(n, D, 2))
        alpha = momenta[data.draw(st.integers(0, len(momenta) - 1), label="momentum")]
        j = data.draw(st.integers(0, n - 1), label="axis")
        k = data.draw(st.integers(9, 14), label="k")
        sign = data.draw(st.sampled_from([1.0, -1.0]), label="sign")
        turn = data.draw(st.integers(0, 8), label="turn")
        try:
            spectrum = near_resonant_spectrum(kind, omega, alpha, j, sign * 10.0 ** -k, turn)
        except ValueError:  # the moved rotation number fell on the other one
            reject()
    else:
        spectrum = (GermSpectrum.from_rotation(omega) if kind == "germ"
                    else FieldSpectrum(tuple(omega)))
    problem = type(problem)(spectrum, problem.f)

    rec = _solve_or_witness(problem, D, "recursive", "raise")
    others = [_solve_or_witness(problem, D, method, "raise") for method in ("tree", "fixedpoint")]
    if isinstance(rec, tuple):
        assert others == [rec, rec]
    else:
        scale = max(1.0, rec.h.max_abs())
        for other in others:
            assert (other.h - rec.h).max_abs() <= 1e-10 * scale, other.method
    rec = solve(problem, D, "recursive", on_small_divisor="clip")
    for method in ("tree", "fixedpoint"):
        other = solve(problem, D, method, on_small_divisor="clip")
        assert other.clipped == rec.clipped, method
        assert (other.h - rec.h).max_abs() <= 1e-10 * max(1.0, rec.h.max_abs()), method


def test_every_route_meets_the_oracle_on_a_drawn_near_resonance():
    """A case the drawn-spectra test can hit: the line ((1, 3), 1) over a 1e-9 divisor.

    Its numerator vanishes with its divisor, so the dense routes lose about
    eps / |divisor| there (1.8e-8), still within 8 d eps M_alpha of the
    exact h, M the majorant over the moduli table and |f|.  The tree keeps
    the line to 5.7e-17.
    """
    D = 4
    problem = thinned_fixture("field", 2, D, seed=1, keep=16)
    momenta = list(iter_indices(2, D, 2))
    assert momenta[8] == (1, 3)
    spectrum = near_resonant_spectrum("field", [-1.0, 0.75], (1, 3), 1, 1e-9, 0)
    problem = VectorField(spectrum, problem.f)
    table = divisor_table(spectrum, D)
    assert abs(table.to_array()[1, list(graded_indices(2, D)).index((1, 3))]) == pytest.approx(1e-9)
    exact = as_array(2, D, conjugacy(problem, D))
    M = np.abs(majorant(problem, D).to_array())
    d = np.array([sum(alpha) for alpha in graded_indices(2, D)])
    eps = np.finfo(float).eps
    for method in ("recursive", "tree", "fixedpoint"):
        gap = np.abs(solve(problem, D, method).h.to_array() - exact)
        assert (gap <= 8 * d * eps * M).all(), (method, gap.max())
        if method == "tree":
            assert gap.max() <= 1e-15, gap.max()
