"""Metamorphic relations: exact symmetries of the equation, checked on every route without an oracle.

Each relation edits a problem document, reads the result with
``documents.problem_from_doc`` and predicts its h from the first one's:

* conjugating f and the spectrum (for a germ, rotation -> -rotation)
  gives conj(h);
* for a field, (omega, f) -> (2 omega, 2 f) gives the same h, since every
  divisor and every coefficient of f doubles exactly.

Both hold bit for bit on all three routes.  ``np.conj`` turns a +0.0
imaginary part into -0.0, so conjugation compares values
(``np.array_equal``), and scaling compares bytes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from treelin import cli, solve
from treelin.documents import problem_from_doc

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
