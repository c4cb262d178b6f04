"""Property test: the three solvers agree on thinned fixtures."""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from treelin import Germ, VectorField, VectorSeries, cli
from treelin.documents import load_json, problem_from_doc
from treelin.linearize import solve


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


@settings(max_examples=25, deadline=None)
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
