"""Metamorphic relations: exact symmetries of the equation, checked on every route without an oracle.

Each relation edits a problem document, reads the result with
``documents.problem_from_doc`` and predicts its h from the first one's:

* conjugating f and the spectrum (for a germ, rotation -> -rotation)
  gives conj(h);
* for a field, (omega, f) -> (2 omega, 2 f) gives the same h, since every
  divisor and every coefficient of f doubles exactly;
* dilating f by a power of two rho, f_alpha -> f_alpha rho^(|alpha| - 1)
  with the spectrum kept, gives h_alpha rho^(|alpha| - 1): the problem of
  f(rho z) / rho, solved by h(rho z) / rho.

All three hold bit for bit on all three routes.  ``np.conj`` turns a +0.0
imaginary part into -0.0, so conjugation and dilation compare values
(``np.array_equal``), and scaling compares bytes.

* reversing the variables (spectrum, exponents and components together)
  reverses them in h.  Graded-lex order changes the summation order, so
  this holds to rounding only: each degree is compared against its largest
  coefficient, within ``PERMUTATION_TOL``.  A fault that breaks the
  symmetry moves h by far more: one degree-4 slot of the product kernel
  or one degree-2 divisor made 0.1 % too large is flagged on every route
  that uses it, and only there.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from treelin import cli, linearize, series, solve
from treelin.documents import problem_from_doc
from treelin.indices import slot_count
from treelin.series import VectorSeries, graded_indices

# (kind, n, D of the dense routes, D of the tree)
CASES = [("germ", 2, 10, 6), ("germ", 3, 8, 5), ("field", 2, 10, 6), ("field", 3, 8, 5)]
METHODS = ("recursive", "tree", "fixedpoint")


def fixture_doc(tmp_path, kind: str, n: int, D: int) -> dict:
    """A `treelin fixture --degree-f 3 --seed 1` problem document."""
    path = tmp_path / f"{kind}-{n}-{D}.json"
    assert cli.main(["fixture", kind, "--n", str(n), "--degree-f", "3", "--trunc", str(D),
                     "--seed", "1", "--out", str(path)]) == 0
    return json.loads(path.read_text())


def edited(doc: dict, value, spectrum: dict) -> dict:
    """``doc`` with each coefficient [re, im] of f mapped by ``value`` and the given spectrum."""
    terms = [{**t, "value": [value(*c) for c in t["value"]]} for t in doc["series"]["terms"]]
    return {**doc, "spectrum": spectrum, "series": {**doc["series"], "terms": terms}}


def solutions(doc: dict, other: dict, method: str, D: int):
    return [solve(problem_from_doc(d), D, method).h.to_array() for d in (doc, other)]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind,n,D,tree_D", CASES)
def test_conjugating_f_and_the_spectrum_conjugates_h(tmp_path, kind, n, D, tree_D, method):
    doc = fixture_doc(tmp_path, kind, n, D)
    spectrum = doc["spectrum"]
    if kind == "germ":
        spectrum = {"rotation": [-w for w in spectrum["rotation"]]}
    else:
        spectrum = {"omega": [[re, -im] for re, im in spectrum["omega"]]}
    h, conjugate = solutions(doc, edited(doc, lambda re, im: [re, -im], spectrum), method,
                             tree_D if method == "tree" else D)
    assert h.any()
    assert np.array_equal(conjugate, np.conj(h))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind,n,D,tree_D", [case for case in CASES if case[0] == "field"])
def test_doubling_a_fields_spectrum_and_f_keeps_h(tmp_path, kind, n, D, tree_D, method):
    doc = fixture_doc(tmp_path, kind, n, D)
    spectrum = {"omega": [[2 * re, 2 * im] for re, im in doc["spectrum"]["omega"]]}
    h, scaled = solutions(doc, edited(doc, lambda re, im: [2 * re, 2 * im], spectrum), method,
                          tree_D if method == "tree" else D)
    assert h.any()
    assert scaled.tobytes() == h.tobytes()


def dilated(doc: dict, rho: float) -> dict:
    """``doc`` with each coefficient of f at alpha times rho^(|alpha| - 1)."""
    def term(t):
        scale = rho ** (sum(t["alpha"]) - 1)
        return {**t, "value": [[re * scale, im * scale] for re, im in t["value"]]}

    return {**doc, "series": {**doc["series"], "terms": [term(t) for t in doc["series"]["terms"]]}}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind,n,D,tree_D", CASES)
def test_dilating_f_by_a_power_of_two_dilates_h(tmp_path, kind, n, D, tree_D, method):
    D = tree_D if method == "tree" else D
    doc = fixture_doc(tmp_path, kind, n, D)
    h = solve(problem_from_doc(doc), D, method).h.to_array()
    assert h.any()
    degrees = np.array([sum(alpha) for alpha in graded_indices(n, D)])
    for rho in (2.0 ** -3, 2.0 ** 5):
        dilation = solve(problem_from_doc(dilated(doc, rho)), D, method).h.to_array()
        assert np.array_equal(dilation, h * rho ** (degrees - 1.0)), rho


# per degree, relative to the degree's largest coefficient of h
PERMUTATION_TOL = 1e-11


def reversed_variables(doc: dict) -> dict:
    """``doc`` with the variables in reverse order: spectrum, exponents and components."""
    terms = [{"alpha": t["alpha"][::-1], "value": t["value"][::-1]} for t in doc["series"]["terms"]]
    spectrum = {key: value[::-1] for key, value in doc["spectrum"].items()}
    return {**doc, "spectrum": spectrum, "series": {**doc["series"], "terms": terms}}


def permutation_defect(doc: dict, method: str, D: int) -> float:
    """Largest per-degree difference of h and the reversal of the reversed problem's h.

    Each degree's difference is taken relative to that degree's largest
    coefficient of h.
    """
    n = doc["n"]
    h, h_rev = solutions(doc, reversed_variables(doc), method, D)
    assert h.any()
    indices = graded_indices(n, D)
    slot = {alpha: s for s, alpha in enumerate(indices)}
    back = h_rev[::-1, [slot[alpha[::-1]] for alpha in indices]]
    worst = 0.0
    for d in range(2, D + 1):
        lo, hi = slot_count(n, d - 1), slot_count(n, d)
        moved = np.abs(back[:, lo:hi] - h[:, lo:hi]).max()
        if moved:
            worst = max(worst, moved / np.abs(h[:, lo:hi]).max())
    return worst


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kind,n,D,tree_D", CASES)
def test_reversing_the_variables_reverses_them_in_h(tmp_path, kind, n, D, tree_D, method):
    doc = fixture_doc(tmp_path, kind, n, D)
    assert permutation_defect(doc, method, tree_D if method == "tree" else D) <= PERMUTATION_TOL


def faulty_kernel(monkeypatch):
    """Every product's first degree-4 slot 0.1 % too large.  The tree route calls no product."""
    kernel = series.product_slice

    def product_slice(a, b, n, d):
        out = kernel(a, b, n, d)
        if d == 4:
            out[0] *= 1.001
        return out

    monkeypatch.setattr(series, "product_slice", product_slice)


def faulty_divisor(monkeypatch):
    """The first degree-2 divisor of component 0 in the table every route divides by 0.1 % too large."""
    build = linearize.divisor_table

    def divisor_table(spectrum, D):
        rows = build(spectrum, D).to_array().copy()
        rows[0, slot_count(spectrum.n, 1)] *= 1.001
        return VectorSeries.from_array(spectrum.n, D, rows)

    monkeypatch.setattr(linearize, "divisor_table", divisor_table)


# each fault, and the routes that use the faulty part
FAULTS = [(faulty_kernel, {"recursive", "fixedpoint"}), (faulty_divisor, set(METHODS))]


@pytest.mark.parametrize("fault,uses", FAULTS, ids=["kernel", "divisor"])
@pytest.mark.parametrize("kind,n,D,tree_D", CASES)
def test_the_permutation_relation_flags_the_routes_a_fault_reaches(
        monkeypatch, tmp_path, kind, n, D, tree_D, fault, uses):
    doc = fixture_doc(tmp_path, kind, n, D)
    fault(monkeypatch)
    flagged = {method for method in METHODS
               if permutation_defect(doc, method, tree_D if method == "tree" else D) > PERMUTATION_TOL}
    assert flagged == uses
