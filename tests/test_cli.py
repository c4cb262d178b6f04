"""Document round-trips, CLI behavior, determinism, exit codes."""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from treelin import Germ, GermSpectrum, VectorSeries, documents, linearize, series, trees, treesum
from treelin.cli import build_parser, main
from treelin.documents import (
    canonical_bytes,
    digest,
    problem_from_doc,
    problem_to_doc,
    series_from_doc,
    series_to_doc,
)
from treelin.series import ScalarSeries

from conftest import GOLDEN, ROOT, random_vector_series, run_python

INF, NAN = float("inf"), float("nan")


# ---------------------------------------------------------------------------
# document round-trips
# ---------------------------------------------------------------------------


def test_series_document_round_trip(rng):
    f = random_vector_series(rng, 2, 5, min_degree=1, density=0.6)
    doc = series_to_doc(f)
    back = series_from_doc(doc)
    assert back == f
    # canonical form is a fixed point of serialize -> parse -> serialize
    assert canonical_bytes(series_to_doc(back)) == canonical_bytes(doc)


def test_scalar_series_document_round_trip():
    s = ScalarSeries(1, 4, {(2,): 1.5 + 0.5j, (0,): -1.0})
    back = series_from_doc(series_to_doc(s))
    assert back == s


def test_problem_document_round_trip(rng):
    f = random_vector_series(rng, 2, 5, min_degree=2, density=0.7)
    germ = Germ(GermSpectrum.from_rotation((GOLDEN, 0.31)), f)
    doc = problem_to_doc(germ)  # holds f itself, written by canonical_bytes
    back = problem_from_doc(json.loads(canonical_bytes(doc)))
    assert back.f == germ.f
    assert back.spectrum.rotation == germ.spectrum.rotation
    assert digest(problem_to_doc(back)) == digest(doc)


def _problem_doc(lam=None, terms=None, n=1, D=4):
    """A germ problem document; ``lam`` replaces the rotation spectrum by eigenvalues."""
    spectrum = {"rotation": [GOLDEN, 0.5 * GOLDEN][:n]} if lam is None else {"lambda": lam}
    if terms is None:
        terms = [{"alpha": [2] + [0] * (n - 1), "value": [[0.5, 0.0]] * n}]
    return {"kind": "germ", "n": n, "D": D, "spectrum": spectrum,
            "series": {"n": n, "D": D, "kind": "vector", "terms": terms}}


# documents that reach the constructors of spectra, series and problems
MALFORMED_PROBLEMS = {
    "no variables": _problem_doc(n=0, terms=[]),
    "negative degree": _problem_doc(D=-2, terms=[]),
    "linear term": _problem_doc(terms=[{"alpha": [1], "value": [[0.5, 0.0]]}]),
    "zero eigenvalue": _problem_doc(lam=[[0.0, 0.0]]),
    "repeated eigenvalues": _problem_doc(n=2, lam=[[2.0, 0.0], [2.0, 0.0]]),
    "term without value": _problem_doc(terms=[{"alpha": [2]}]),
    "spectrum not a mapping": {**_problem_doc(), "spectrum": 3},
}
# numbers of the wrong JSON type, which int() and complex() would coerce
_SERIES = _problem_doc()["series"]
MALFORMED_PROBLEMS.update({
    "fractional exponents": _problem_doc(
        n=2, terms=[{"alpha": [1.9, 1.2], "value": [[0.5, 0.0]] * 2}]),
    "exponent as a string": _problem_doc(terms=[{"alpha": ["2"], "value": [[0.5, 0.0]]}]),
    "exponent true": _problem_doc(n=2, terms=[{"alpha": [True, True], "value": [[0.5, 0.0]] * 2}]),
    "coefficient true": _problem_doc(terms=[{"alpha": [2], "value": [True]}]),
    "coefficient pair with true": _problem_doc(terms=[{"alpha": [2], "value": [[True, 0.0]]}]),
    "n as a string": {**_problem_doc(), "n": "1"},
    "n fractional": {**_problem_doc(), "n": 1.5},
    "series n as a string": {**_problem_doc(), "series": {**_SERIES, "n": "1"}},
    "series D fractional": {**_problem_doc(), "series": {**_SERIES, "D": 4.5}},
    "series D true": {**_problem_doc(), "series": {**_SERIES, "D": True, "terms": []}},
    "rotation as a string": {**_problem_doc(), "spectrum": {"rotation": ["0.618"]}},
    "rotation true": {**_problem_doc(), "spectrum": {"rotation": [True]}},
    "coefficient beyond the float range": _problem_doc(terms=[{"alpha": [2], "value": [10**400]}]),
    # a series is a scalar or vector series with a list of terms
    "series kind banana": {**_problem_doc(), "series": {**_SERIES, "kind": "banana"}},
    "series without terms": {**_problem_doc(), "series": {"n": 1, "D": 4, "kind": "vector"}},
    "series terms an object": {**_problem_doc(), "series": {**_SERIES, "terms": {}}},
})
# spectra with an infinite or NaN entry (JSON Infinity and NaN parse as floats)
MALFORMED_PROBLEMS.update({
    "rotation infinite": {**_problem_doc(), "spectrum": {"rotation": [INF]}},
    "rotation NaN": {**_problem_doc(), "spectrum": {"rotation": [NAN]}},
    "rotation beyond the float range": {**_problem_doc(), "spectrum": {"rotation": [10**400]}},
    "eigenvalue infinite": _problem_doc(lam=[[-INF, 0.0]]),
    "eigenvalue NaN": _problem_doc(lam=[NAN]),
    "field eigenvalue NaN": {**_problem_doc(), "kind": "field", "spectrum": {"omega": [[0.0, NAN]]}},
})


def test_malformed_documents_rejected():
    from treelin import UsageError

    with pytest.raises(UsageError):
        series_from_doc({"n": 2, "D": 3, "terms": [{"alpha": [1], "value": [1, 0]}]})
    with pytest.raises(UsageError):
        series_from_doc({"n": 1, "D": 3,
                         "terms": [{"alpha": [9], "value": [1, 0]}]})
    with pytest.raises(UsageError):
        problem_from_doc({"kind": "spiral"})
    for doc in MALFORMED_PROBLEMS.values():
        with pytest.raises(UsageError):
            problem_from_doc(doc)
    for n, D in ((0, 3), (-1, 3), (1, -2)):
        with pytest.raises(UsageError):
            series_from_doc({"n": n, "D": D, "terms": []})


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def _write_problem(tmp_path, seed=0, n=1, degree_f=4, trunc=8, kind="germ"):
    path = tmp_path / f"problem_{kind}_{seed}.json"
    code = main([
        "fixture", kind, "--n", str(n), "--degree-f", str(degree_f),
        "--trunc", str(trunc), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def test_fixture_is_deterministic(tmp_path):
    a = _write_problem(tmp_path, seed=3)
    b = tmp_path / "again.json"
    main(["fixture", "germ", "--n", "1", "--degree-f", "4", "--trunc", "8",
          "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bruno_command_golden(capsys):
    code = main(["bruno", "--omega", f"{GOLDEN:.10f}", "--terms", "10"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    qs = [int(row.split(",")[2]) for row in lines[1:11]]
    assert qs == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_bruno_command_rational_exits_2(capsys):
    code = main(["bruno", "--omega", "0.5", "--terms", "6"])
    assert code == 2
    out = capsys.readouterr().out
    assert "flag=" in out


def test_family_overflow_exits_2(capsys):
    code = main(["diagnose", "family", "--k", "1", "--omega", "0.6180339887498949",
                 "--degree", "1000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "CoefficientOverflow" in captured.err and "degree 643" in captured.err


def test_trees_command_counts(capsys):
    code = main(["trees", "enum", "--order", "4"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert out[0] == "1,1,1,0"


def test_trees_labeled_command(capsys):
    code = main([
        "trees", "enum", "--order", "2", "--labeled", "--alpha", "3",
        "--axis", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    assert out[0].startswith("m=1,0")


def test_omega_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rotation": [GOLDEN]}))
    code = main(["omega", "--spectrum", str(spec), "--p-max", "8",
                 "--variant", "frac"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "p,value"
    assert len(rows) == 9


def test_linearize_all_methods_and_verify(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=1)
    out = tmp_path / "solution.json"
    code = main([
        "linearize", "germ", "--input", str(problem), "--degree", "6",
        "--method", "all", "--verify", "--output", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["method"] == "recursive"
    assert report["method_agreement_max_abs"] < 1e-9
    assert report["verified"]["max_rel"] < 1e-9
    assert report["conforming"] is True
    # one residual record everywhere; --verify copies the primary method's
    assert report["verified"] == report["residual"] == report["methods"]["recursive"]
    for record in report["methods"].values():
        assert sorted(record) == ["max_abs", "max_rel"]

    # verify the emitted solution against the problem document
    capsys.readouterr()
    code = main(["verify", "--input", str(problem), "--solution", str(out)])
    assert code == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "max_abs,max_rel,degree"
    assert row == f"{report['residual']['max_abs']!r},{report['residual']['max_rel']!r},6"


def test_linearize_verify_checks_the_solution_once(tmp_path, monkeypatch):
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    germ = problem_from_doc(json.loads(problem.read_text()))
    check = linearize.verify_conjugacy
    calls = []

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(linearize, "verify_conjugacy", counted)
    for method in ("recursive", "tree", "fixedpoint"):
        plain, verified = tmp_path / f"{method}.json", tmp_path / f"{method}_verified.json"
        argv = ["linearize", "germ", "--input", str(problem), "--degree", "6", "--method", method]
        assert main(argv + ["--output", str(plain)]) == 0
        calls.clear()
        assert main(argv + ["--verify", "--output", str(verified)]) == 0
        assert len(calls) == 1, method
        # the same bytes as the plain report plus a separate check's figures
        rep = check(germ, linearize.solve(germ, 6, method).h)
        expected = {**json.loads(plain.read_text()), "verified": {
            "max_abs": rep.max_abs, "max_rel": rep.max_rel}}
        assert verified.read_bytes() == canonical_bytes(expected), method


def test_verify_rejects_wrong_solution(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=2)
    bogus = tmp_path / "bogus.json"
    series = VectorSeries.from_coeffs(1, 8, {(2,): (0.5,)})
    bogus.write_text(canonical_bytes(series_to_doc(series)).decode())
    code = main(["verify", "--input", str(problem), "--solution", str(bogus)])
    assert code == 2


def test_verify_refuses_a_solution_in_other_variables(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=2)
    other = tmp_path / "other.json"
    series = VectorSeries.from_coeffs(2, 8, {(2, 0): (0.5, 0.0)})
    other.write_text(canonical_bytes(series_to_doc(series)).decode())
    capsys.readouterr()
    assert main(["verify", "--input", str(problem), "--solution", str(other)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: the solution has n = 2 but the problem has n = 1"), err


def test_verify_names_a_wrong_solution_a_conjugacy_defect(tmp_path, capsys):
    # a germ's h checked against a field of the same n and D: a wrong h, not a resonance
    germ = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=8)
    field = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=8, kind="field")
    solution = tmp_path / "h.json"
    assert main(["linearize", "germ", "--input", str(germ), "--degree", "8",
                 "--output", str(solution)]) == 0
    assert main(["verify", "--input", str(germ), "--solution", str(solution)]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", str(field), "--solution", str(solution)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error (ConjugacyDefect): conjugacy defect "), err
    assert "exceeds tolerance 1.0e-09" in err


def test_linearize_note_gives_the_relative_residual_first(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    out = tmp_path / "h.json"
    for method in ("recursive", "tree", "fixedpoint"):
        capsys.readouterr()
        assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                     "--method", method, "--verify", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # the note goes to stderr only
        note = captured.err.splitlines()[0]
        verified = json.loads(out.read_text())["verified"]
        expected = (f"s, residual max_rel {verified['max_rel']:.3e}, "
                    f"max_abs {verified['max_abs']:.3e}")
        assert note.startswith(f"{method}: "), note
        assert expected in note, note


def test_linearize_deterministic_across_runs(tmp_path):
    problem = _write_problem(tmp_path, seed=4, n=2, degree_f=3, trunc=5)
    outputs = []
    for run in range(3):
        out = tmp_path / f"out_{run}.json"
        assert main([
            "linearize", "germ", "--input", str(problem), "--degree", "5",
            "--method", "all", "--output", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_tree_note_reports_the_plan_counts(tmp_path, capsys):
    # the counts belong to the method: every contributing labeling of the
    # degree-3 fixtures up to degree 6 is one summand.  At n=3, degree 6 has
    # nodes with three children, each counted in its t!/beta! orderings.
    cases = [
        (2, "summands [6, 32, 236, 2048, 19288], monomials [6, 30, 122, 426, 1284]"),
        (3, "summands [18, 192, 3024, 54324, 1060236], "
            "monomials [18, 183, 1722, 13908, 95574]"),
    ]
    for n, counts in cases:
        problem = _write_problem(tmp_path, seed=1, n=n, degree_f=3, trunc=6)
        out = tmp_path / "tree.json"
        capsys.readouterr()
        assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                     "--method", "tree", "--output", str(out)]) == 0
        assert f"degrees 2..6: {counts}" in capsys.readouterr().err
        assert "summands" not in out.read_text()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["linearize"]) == 1
    assert main(["bruno"]) == 1
    assert main(["linearize", "germ", "--input", "missing.json",
                 "--degree", "4"]) == 1
    problem = _write_problem(tmp_path)
    field = _write_problem(tmp_path, n=2, kind="field")
    solution = tmp_path / "h.json"
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "8",
                 "--output", str(solution)]) == 0
    capsys.readouterr()
    missing = tmp_path / "missing"
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"note": "\xe9"}')
    bad_args = [
        ["fixture", "germ", "--n", "0"],
        ["fixture", "germ", "--n", "4"],
        ["fixture", "germ", "--trunc", "-1"],
        ["linearize", "germ", "--input", str(problem), "--degree", "-3"],
        ["trees", "enum", "--order", "0"],
        ["trees", "enum", "--order", "2", "--labeled", "--alpha", "3", "--axis", "2"],
        ["bruno", "--omega", "0.6", "--terms", "0"],
        ["diagnose", "family", "--omega", "0.6", "--k", "0"],
        ["diagnose", "condition", "--omega", "0.6", "--class-m", "gevrey:x"],
        ["diagnose", "condition", "--omega", "0.6", "--class-m", "geometric:2",
         "--class-n", "geometric:1"],
        ["bruno", "--omega", "1/0"],
        # fewer than three nonzero degrees of h: no growth fit
        ["diagnose", "family", "--omega", "0.6", "--degree", "2"],
        ["diagnose", "family", "--k", "3", "--omega", "0.6", "--degree", "6"],
        ["diagnose", "family", "--omega", "inf"],
        ["diagnose", "condition", "--omega", "nan"],
        ["bruno", "--omega", "-inf"],
        ["bruno", "--omega", "nan"],
        # a radius and a tolerance are finite, a radius positive, a seed >= 0
        ["diagnose", "growth", "--input", str(solution), "--majorant-r", "-1"],
        ["diagnose", "domain", "--input", str(field), "--majorant-r", "0"],
        ["diagnose", "domain", "--input", str(field), "--majorant-r", "nan"],
        ["verify", "--input", str(problem), "--solution", str(solution), "--tol", "nan"],
        ["verify", "--input", str(problem), "--solution", str(solution), "--tol", "-1"],
        ["fixture", "germ", "--seed", "-1"],
        ["diagnose", "class", "--input", str(solution), "--class-m", "gevrey:nan"],
        ["trees", "enum", "--order", "2", "--labeled", "--alpha", "2,-1"],
        ["diagnose", "condition", "--omega", "0.6", "--class-m", "geometric:inf"],
        # f has degree >= 2
        ["fixture", "germ", "--degree-f", "-2"],
        ["fixture", "germ", "--degree-f", "1"],
        # files that cannot be read
        ["linearize", "germ", "--input", str(tmp_path), "--degree", "4"],
        ["linearize", "germ", "--input", str(not_utf8), "--degree", "4"],
        ["fixture", "germ", "--out", str(missing / "germ.json")],
        # an output that is a directory
        ["linearize", "germ", "--input", str(problem), "--degree", "4", "--output", str(tmp_path)],
    ]
    # --p-max below the first row of its variant
    rotation = tmp_path / "rotation.json"
    rotation.write_text(json.dumps({"rotation": [GOLDEN], "omega": [-1.0, GOLDEN]}))
    for variant, least in (("frac", 1), ("tilde", 2), ("hat", 2)):
        argv = ["omega", "--spectrum", str(rotation), "--variant", variant, "--p-max"]
        assert main(argv + [str(least)]) == 0, variant
        bad_args += [argv + [str(least - 1)], argv + ["-1"]]
    capsys.readouterr()
    omega_spectra = [("tilde", {"rotation": [0.3, 0.3]}), ("tilde", {"lambda": [[]]}),
                     ("frac", {"rotation": ["x"]}), ("hat", [GOLDEN])]
    # numbers of the wrong JSON type, which float() and complex() would coerce,
    # and numbers that are not finite
    for variant, key in (("tilde", "rotation"), ("frac", "rotation"), ("frac", "omega"),
                         ("hat", "omega")):
        omega_spectra += [(variant, {key: ["0.3"]}), (variant, {key: [True]}),
                          (variant, {key: [INF]}), (variant, {key: [GOLDEN, NAN]})]
    omega_spectra += [("tilde", {"lambda": [["0.6", 0.8]]}), ("tilde", {"lambda": [[True, 0.0]]}),
                      ("tilde", {"lambda": [[0.6, INF]]}), ("hat", {"omega": [[NAN, 1.0]]}),
                      ("frac", {"rotation": [10**400]})]
    for variant, spectrum in omega_spectra:
        path = tmp_path / f"spectrum_{len(bad_args)}.json"
        path.write_text(json.dumps(spectrum))
        bad_args.append(["omega", "--spectrum", str(path), "--p-max", "3", "--variant", variant])
    for name, doc in MALFORMED_PROBLEMS.items():
        path = tmp_path / f"{name.replace(' ', '_')}.json"
        path.write_text(json.dumps(doc))
        bad_args.append(["linearize", "germ", "--input", str(path), "--degree", "4"])
    # f has valuation >= 2 at every degree, also where f is read only through degree 0 or 1
    h0 = tmp_path / "h0.json"
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "0",
                 "--output", str(h0)]) == 0
    capsys.readouterr()
    linear = {"germ": tmp_path / "linear_germ.json", "field": tmp_path / "linear_field.json"}
    for kind, good in (("germ", problem), ("field", field)):
        doc = json.loads(good.read_text())
        n = doc["n"]
        value = [[0.5, 0.0]] + [[0.0, 0.0]] * (n - 1)
        doc["series"]["terms"].append({"alpha": [1] + [0] * (n - 1), "value": value})
        linear[kind].write_text(json.dumps(doc))
    for degree in ("0", "1", "4"):
        bad_args += [["linearize", "germ", "--input", str(linear["germ"]), "--degree", degree],
                     ["linearize", "field", "--input", str(linear["field"]), "--degree", degree],
                     ["diagnose", "domain", "--input", str(linear["field"]), "--degree", degree]]
    bad_args += [["verify", "--input", str(linear["germ"]), "--solution", str(h)]
                 for h in (h0, solution)]
    # support indices are lists of len(alpha) integers >= 0, not coerced;
    # a support series has len(alpha) variables
    one_variable = series_to_doc(VectorSeries.from_coeffs(1, 4, {(2,): (0.5,)}))
    for support in ([["a", 1]], [3], [[True, 2.7]], [[2.0, 1]], [[2]], [[2, 1, 0]], [[-1, 3]],
                    one_variable):
        path = tmp_path / f"support_{len(bad_args)}.json"
        path.write_text(json.dumps(support))
        bad_args.append(["trees", "enum", "--order", "2", "--labeled", "--alpha", "2,1",
                         "--support", str(path)])
    # class tables are lists of positive numbers, not coerced, and cover the
    # nonzero degrees of h (here 2..8)
    for table in (["2", True, 3], {"1": 2}, [2, 1, 3, None], [1.5] * 7):
        path = tmp_path / f"table_{len(bad_args)}.json"
        path.write_text(json.dumps(table))
        bad_args.append(["diagnose", "class", "--input", str(solution),
                         "--class-m", f"table:{path}"])
    # diagnose writes one table, to --emit-csv or --output
    both = [tmp_path / "family.csv", tmp_path / "family.out"]
    bad_args.append(["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12",
                     "--emit-csv", str(both[0]), "--output", str(both[1])])
    for argv in bad_args:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: "), (argv, err)
        assert "Traceback" not in err, argv
    # a problem document where a series belongs is named as what it is
    for argv in (["diagnose", "growth", "--input", str(problem)],
                 ["diagnose", "class", "--input", str(problem)],
                 ["verify", "--input", str(problem), "--solution", str(problem)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.splitlines()[0] == (
            "usage error: expected a series document, got a germ problem document"), argv
    # outputs in a directory that does not exist are refused before any work:
    # no solve writes its timing note to stderr, and no other output is left
    written = tmp_path / "written.json"
    unwritable = [
        ["linearize", "germ", "--input", str(problem), "--degree", "4",
         "--output", str(missing / "h.json")],
        ["linearize", "germ", "--input", str(problem), "--degree", "4",
         "--emit-csv", str(missing / "h.csv")],
        ["linearize", "germ", "--input", str(problem), "--degree", "4",
         "--output", str(written), "--emit-csv", str(missing / "h.csv")],
        ["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12",
         "--emit-csv", str(missing / "family.csv")],
    ]
    for argv in unwritable:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: cannot write {missing}"), (argv, err)
        assert "Traceback" not in err, argv
    assert not missing.exists()
    assert not written.exists()
    assert not any(path.exists() for path in both)


def test_two_outputs_naming_one_file_are_a_usage_error(tmp_path, capsys, monkeypatch):
    # refused before the solve, which would leave the file holding only the CSV
    problem = _write_problem(tmp_path)
    same = tmp_path / "h.json"
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    for other in (str(same), "h.json", os.path.join(".", "sub", "..", "h.json")):
        argv = ["linearize", "germ", "--input", str(problem), "--degree", "4",
                "--output", str(same), "--emit-csv", other]
        assert main(argv) == 1, other
        err = capsys.readouterr().err
        assert err.startswith("usage error: --output and --emit-csv name the same file"), err
        assert "residual" not in err, err
    assert not same.exists()
    argv[-1] = "h.csv"
    assert main(argv) == 0
    assert same.read_text().startswith("{") and (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("reads,writes", [("--input", "--output"), ("--input", "--emit-csv"),
                                          ("--solution", "--output")])
def test_an_output_naming_an_input_is_a_usage_error(tmp_path, capsys, monkeypatch, reads, writes):
    # refused before any work, which would leave the input holding the output
    problem = _write_problem(tmp_path)
    solution = tmp_path / "h.json"
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                 "--output", str(solution)]) == 0
    monkeypatch.chdir(tmp_path)
    target = problem if reads == "--input" else solution
    before = target.read_bytes()
    if reads == "--solution":
        argv = ["verify", "--input", str(problem), "--solution", str(solution)]
    else:
        argv = ["linearize", "germ", "--input", str(problem), "--degree", "6"]
    capsys.readouterr()
    assert main(argv + [writes, os.path.join(".", target.name)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        f"usage error: {reads} and {writes} name the same file ./{target.name}")
    assert target.read_bytes() == before


@pytest.mark.parametrize("option,argv", [
    ("--class-m", ["diagnose", "class", "--input", "h.json"]),
    ("--class-n", ["diagnose", "condition", "--omega", "0.618", "--dmax", "10"]),
])
@pytest.mark.parametrize("writes", ["--output", "--emit-csv"])
def test_an_output_naming_a_class_table_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                         option, argv, writes):
    # the file of a table: spec is read, so writing it would replace it
    problem = _write_problem(tmp_path)
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "8",
                 "--output", str(tmp_path / "h.json")]) == 0
    table = tmp_path / "t.json"
    table.write_text(json.dumps([1] * 16))
    before = table.read_bytes()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv + [option, "table:t.json", writes, os.path.join(".", "t.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == f"usage error: {option} and {writes} name the same file ./t.json"
    assert table.read_bytes() == before
    assert main(argv + [option, "table:t.json", writes, "out.csv"]) == 0


@pytest.mark.parametrize("what", ["growth", "class", "domain"])
def test_diagnose_without_input_is_a_usage_error(what, capsys):
    assert main(["diagnose", what, "--degree", "12"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {what} diagnostics need --input"), err


def test_diagnose_does_not_load_openssl():
    # hashlib loads libcrypto, several MB resident; only run reports hash
    script = (
        "import sys\n"
        "import treelin.cli as cli\n"
        f"assert cli.main(['diagnose', 'family', '--omega', '{GOLDEN!r}', '--degree', '12']) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "False"


# resonant eigenvalues: solving must fail with a structured domain error
RESONANT_PROBLEM = {
    "kind": "germ", "n": 2, "D": 4,
    "spectrum": {"lambda": [[4.0, 0.0], [2.0, 0.0]]},
    "series": {
        "n": 2, "D": 4, "kind": "vector",
        "terms": [{"alpha": [0, 2], "value": [[1.0, 0.0], [0.0, 0.0]]}],
    },
}


def test_domain_error_exit_2(tmp_path, capsys):
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(RESONANT_PROBLEM))
    assert main(["linearize", "germ", "--input", str(path),
                 "--degree", "4"]) == 2
    # clip mode turns it into a non-conforming success
    out = tmp_path / "clipped.json"
    assert main(["linearize", "germ", "--input", str(path), "--degree", "4",
                 "--clip", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conforming"] is False
    assert report["clipped"]
    # a rational rotation within reach of the scales: Omega(8) = 0 for omega = 3/5
    capsys.readouterr()
    assert main(["diagnose", "condition", "--omega", "0.6", "--dmax", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error (ResonantSpectrum): "), err


def test_a_degree_above_the_documents_truncation_is_a_usage_error(tmp_path, capsys):
    # a document states f only through its truncation, so a solve or a check
    # above it would read coefficients the document never gave
    germ = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    field = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6, kind="field")
    longer = _write_problem(tmp_path, seed=2, n=2, degree_f=3, trunc=7)
    h7 = tmp_path / "h7.json"
    assert main(["linearize", "germ", "--input", str(longer), "--degree", "7",
                 "--output", str(h7)]) == 0
    capsys.readouterr()
    cases = [
        (["linearize", "germ", "--input", str(germ), "--degree", "7"], "--degree 7"),
        (["linearize", "field", "--input", str(field), "--degree", "9", "--method", "all"],
         "--degree 9"),
        (["diagnose", "domain", "--input", str(field), "--degree", "8"], "--degree 8"),
        (["verify", "--input", str(germ), "--solution", str(h7)], "truncation 7"),
    ]
    for argv, named in cases:
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("usage error: "), (argv, captured.err)
        assert named in captured.err and "truncation 6" in captured.err, (argv, captured.err)
    # at the document's truncation, and below it, the same commands run
    for D in ("6", "5"):
        assert main(["linearize", "germ", "--input", str(germ), "--degree", D]) == 0
        assert main(["linearize", "field", "--input", str(field), "--degree", D]) == 0


def _fixture_pair(tmp_path, kind):
    """The n=2, degree-3 fixture of seed 1 written at truncations 6 and 2000: the same f."""
    paths = []
    for trunc in (6, 2000):
        paths.append(tmp_path / f"{kind}{trunc}.json")
        assert main(["fixture", kind, "--n", "2", "--degree-f", "3", "--trunc", str(trunc),
                     "--seed", "1", "--out", str(paths[-1])]) == 0
    return paths


def test_f_is_read_only_through_the_degree_asked(tmp_path):
    # h through degree d needs f only through degree d; read at its own
    # truncation, f would hold two million slots per component
    for kind in ("germ", "field"):
        short, long = (json.loads(path.read_text()) for path in _fixture_pair(tmp_path, kind))
        problem = problem_from_doc(long, kind, 6)
        assert problem.f.trunc == 6, kind
        assert problem.f == problem_from_doc(short).f, kind
        assert problem_from_doc(long, degree=4).f == problem.f.truncate(4), kind


def test_a_long_document_solves_and_checks_as_its_short_form(tmp_path):
    # in a fresh process whose address space is capped at 400 MB, where
    # reading f through the document's truncation runs out of memory
    germ6, germ2000 = _fixture_pair(tmp_path, "germ")
    field6, field2000 = _fixture_pair(tmp_path, "field")
    h6 = tmp_path / "h6.json"
    assert main(["linearize", "germ", "--input", str(germ6), "--degree", "6",
                 "--output", str(h6)]) == 0
    runs = {
        "linearize": ["linearize", "germ", "--input", "{germ}", "--degree", "6", "--verify"],
        "verify": ["verify", "--input", "{germ}", "--solution", str(h6)],
        "domain": ["diagnose", "domain", "--input", "{field}", "--degree", "6"],
    }
    for name, argv in runs.items():
        short = [a.format(germ=germ6, field=field6) for a in argv]
        assert main(short + ["--output", str(tmp_path / f"{name}6.out")]) == 0, name
    script = (
        "import contextlib, io, os, resource, sys\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from treelin.cli import main\n"
        f"runs = {runs!r}\n"
        "codes = []\n"
        "for name, argv in runs.items():\n"
        f"    argv = [a.format(germ={str(germ2000)!r}, field={str(field2000)!r}) for a in argv]\n"
        f"    out = os.path.join({str(tmp_path)!r}, name + '2000.out')\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv + ['--output', out]))\n"
        "print(codes)\n"
    )
    proc = run_python("-c", script)
    assert proc.stdout.splitlines()[-1:] == ["[0, 0, 0]"], (proc.stdout, proc.stderr)
    for name in runs:
        short = (tmp_path / f"{name}6.out").read_text()
        long = (tmp_path / f"{name}2000.out").read_text()
        if name == "linearize":  # the input digests differ, and nothing else
            short, long = json.loads(short), json.loads(long)
            assert short.pop("input_digest") != long.pop("input_digest")
        assert long == short, name


def test_a_top_level_truncation_other_than_the_series_is_refused(tmp_path, capsys):
    doc = json.loads(_write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6).read_text())
    path = tmp_path / "other.json"
    for D in (3, 99):
        path.write_text(json.dumps({**doc, "D": D}))
        assert main(["linearize", "germ", "--input", str(path), "--degree", "3"]) == 1, D
        assert capsys.readouterr().err.splitlines()[0] == (
            f"usage error: the document has (n, D) = (2, {D}) but its series has (2, 6)"), D


def test_a_term_of_f_below_degree_2_is_named_and_a_zero_one_is_accepted(tmp_path, capsys):
    doc = json.loads(_write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6).read_text())
    terms = doc["series"]["terms"]
    path = tmp_path / "low.json"
    for alpha, value, code in (([0, 1], [[0.0, 0.0], [0.0, 0.0]], 0),
                               ([0, 1], [[0.0, 0.0], [0.0, -1e-300]], 1),
                               ([0, 0], [[0.5, 0.0], [0.0, 0.0]], 1)):
        doc["series"]["terms"] = terms + [{"alpha": alpha, "value": value}]
        path.write_text(json.dumps(doc))
        for degree in ("0", "1", "6"):
            argv = ["linearize", "germ", "--input", str(path), "--degree", degree]
            assert main(argv) == code, (alpha, value, degree)
            err = capsys.readouterr().err.splitlines()[0]
            if code:
                assert err == ("usage error: the nonlinear part must have valuation >= 2, "
                               f"got a nonzero term at {tuple(alpha)}"), err


def test_a_problem_of_the_other_kind_is_named_in_one_line(tmp_path, capsys):
    germ = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    field = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6, kind="field")
    capsys.readouterr()
    for argv, line in (
        (["diagnose", "domain", "--input", str(germ)], "a germ problem, not a field problem"),
        (["linearize", "field", "--input", str(germ), "--degree", "4"],
         "a germ problem, not a field problem"),
        (["linearize", "germ", "--input", str(field), "--degree", "4"],
         "a field problem, not a germ problem"),
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.splitlines()[0] == (
            f"usage error: the input document is {line}"), argv


def test_a_scalar_series_where_a_solution_belongs_is_named(tmp_path, capsys):
    germ = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps(series_to_doc(ScalarSeries(2, 6, {(2, 0): 0.5}))))
    capsys.readouterr()
    for argv in (["verify", "--input", str(germ), "--solution", str(scalar)],
                 ["diagnose", "growth", "--input", str(scalar)]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.splitlines()[0] == (
            "usage error: expected a vector series, got a scalar series"), argv


def test_a_series_too_large_to_hold_names_the_cause(tmp_path, capsys, monkeypatch):
    # a MemoryError carries no message of its own
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)

    def no_memory(cls, n, trunc, coeffs):
        raise MemoryError

    monkeypatch.setattr(series.VectorSeries, "from_coeffs", classmethod(no_memory))
    capsys.readouterr()
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6"]) == 1
    assert capsys.readouterr().err.splitlines()[0] == (
        "usage error: malformed series document: MemoryError")


def test_diagnose_domain_refuses_a_field_outside_the_planar_family(tmp_path, capsys):
    # the spectrum must be (-1, omega) with omega > 0; a traceback before
    field = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6, kind="field")
    doc = json.loads(field.read_text())
    spectra = [[[1.0, 0.0], [GOLDEN, 0.0]], [[-1.0, 0.0], [-GOLDEN, 0.0]],
               [[-1.0, 0.0], [GOLDEN, 0.5]]]
    cases = [_write_problem(tmp_path, seed=1, n=3, degree_f=3, trunc=6, kind="field")]
    for i, omega in enumerate(spectra):
        cases.append(tmp_path / f"spectrum{i}.json")
        cases[-1].write_text(json.dumps({**doc, "spectrum": {"omega": omega}}))
    capsys.readouterr()
    for path in cases:
        assert main(["diagnose", "domain", "--input", str(path)]) == 1, path
        captured = capsys.readouterr()
        assert captured.out == "", path
        first, usage = captured.err.splitlines()
        assert first.startswith("usage error: domain diagnostics need a normalized planar "
                                "field: the normalized family "), (path, first)
        assert usage.startswith("usage: treelin"), (path, usage)


def test_diagnose_defaults_to_the_documents_truncation_and_degree_40(tmp_path):
    # domain solves to the document's truncation, family to degree 40
    field = tmp_path / "f.json"
    assert main(["fixture", "field", "--n", "2", "--out", str(field)]) == 0
    domain, family = tmp_path / "domain.csv", tmp_path / "family.csv"
    assert main(["diagnose", "domain", "--input", str(field), "--output", str(domain)]) == 0
    assert main(["diagnose", "family", "--omega", repr(GOLDEN), "--output", str(family)]) == 0
    assert domain.read_text().splitlines()[1].split(",")[1] == "8"
    assert family.read_text().splitlines()[1].split(",")[2] == "40"


def test_a_tree_build_past_its_monomial_limit_exits_2(tmp_path, capsys, monkeypatch):
    # --method all stops at the tree route, with a one-line message naming it
    # and the limit it passed, which is not memory
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    monkeypatch.setattr(treesum, "MONOMIAL_LIMIT", 1000)
    capsys.readouterr()
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                 "--method", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "domain error (ResourceLimit): the tree route held over 1,000 monomials at n=2, D=6")


def test_running_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)

    def no_memory(table, d):
        raise MemoryError

    monkeypatch.setattr(series._PairTable, "block", no_memory)
    capsys.readouterr()
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error (ResourceLimit): the recursive route ran out "
                            "of memory at n=2, D=6\n")


def test_a_report_that_fails_while_written_leaves_the_previous_file(tmp_path, capsys,
                                                                   monkeypatch):
    # h's terms run out of memory after the 300th, while the report is written:
    # the file keeps its bytes, and no partial file is left beside it
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=30)
    out = tmp_path / "h.json"
    out.write_bytes(b"previous\n")
    out.chmod(0o640)
    listing = sorted(os.listdir(tmp_path))
    iter_terms = series._DenseSeries.iter_terms

    def short_of_memory(self):
        for count, term in enumerate(iter_terms(self)):
            if count == 300:
                raise MemoryError
            yield term

    argv = ["linearize", "germ", "--input", str(problem), "--degree", "30", "--output", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(series._DenseSeries, "iter_terms", short_of_memory)
        capsys.readouterr()
        assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "domain error (ResourceLimit): the linearize command ran out of memory")
    assert out.read_bytes() == b"previous\n"
    assert sorted(os.listdir(tmp_path)) == listing
    # written whole, the report takes the place of the file and keeps its mode
    assert main(argv) == 0
    assert json.loads(out.read_text())["degree"] == 30
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == listing


def test_running_out_of_memory_outside_a_solve_exits_2(capsys, monkeypatch):
    # a real order-16 enumeration needs a memory cap, so the forest is made to fail
    def no_memory(N):
        raise MemoryError

    monkeypatch.setattr(trees, "_forest", no_memory)
    capsys.readouterr()
    assert main(["trees", "enum", "--order", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "domain error (ResourceLimit): the trees command ran out of memory\n"


def test_every_method_clips(tmp_path):
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(RESONANT_PROBLEM))
    argv = ["linearize", "germ", "--input", str(path), "--degree", "4", "--clip"]
    reports = {}
    for method in ("recursive", "tree", "fixedpoint", "all"):
        out = tmp_path / f"{method}.json"
        assert main(argv + ["--method", method, "--output", str(out)]) == 0, method
        reports[method] = json.loads(out.read_text())
        assert reports[method]["conforming"] is False, method
    clipped = reports["recursive"]["clipped"]
    assert clipped and all(r["clipped"] == clipped for r in reports.values())
    assert sorted(reports["all"]["methods"]) == ["fixedpoint", "recursive", "tree"]
    assert reports["all"]["method_agreement_max_abs"] <= 1e-14
    # away from resonance every method runs and the report conforms
    problem = _write_problem(tmp_path, seed=3)
    out = tmp_path / "all.json"
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                 "--method", "all", "--clip", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conforming"] is True
    assert sorted(report["methods"]) == ["fixedpoint", "recursive", "tree"]


@pytest.mark.parametrize("case", ["fixture", "clipped", "f_zero"])
def test_the_written_report_is_the_canonical_bytes_of_the_listed_report(tmp_path, capsys,
                                                                       monkeypatch, case):
    # the report's terms of h are an iterator, written term by term; the
    # same report with its terms listed gives the bytes through canonical_bytes
    flags = {"fixture": [], "clipped": ["--clip"], "f_zero": []}[case]
    if case == "fixture":
        problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    else:
        # the clipped problem holds a nonresonant term too, so h is not 0
        terms = {"clipped": RESONANT_PROBLEM["series"]["terms"]
                 + [{"alpha": [1, 1], "value": [[0.5, 0.0], [0.25, 0.0]]}], "f_zero": []}[case]
        doc = {**RESONANT_PROBLEM, "series": {**RESONANT_PROBLEM["series"], "terms": terms}}
        problem = tmp_path / f"{case}.json"
        problem.write_text(json.dumps(doc))
    run_report, expected = documents.run_report, []

    def listed(problem_doc, method, lin, extras=None):
        report = run_report(problem_doc, method, lin, extras)
        report["h"]["terms"] = list(report["h"]["terms"])
        expected.append(canonical_bytes(report))
        return run_report(problem_doc, method, lin, extras)

    monkeypatch.setattr(documents, "run_report", listed)
    out = tmp_path / "report.json"
    for method in ("recursive", "tree", "fixedpoint", "all"):
        for verify in ([], ["--verify"]):
            argv = ["linearize", "germ", "--input", str(problem), "--degree", "4",
                    "--method", method, *verify, *flags]
            capsys.readouterr()
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == expected[-1], (method, verify)
            assert main(argv + ["--output", str(out)]) == 0
            assert out.read_bytes() == expected[-1], (method, verify)
            report = json.loads(expected[-1])
            assert bool(report["clipped"]) == (case == "clipped"), method
            assert (report["h"]["terms"] == []) == (case == "f_zero"), method


def test_a_run_report_is_written_in_less_memory_than_half_its_size(tmp_path, monkeypatch):
    # the bound was fixed before the writer was: on this problem, listing
    # h's terms as dicts and writing them as one text took 5.4 times the
    # report's size, and listing only the coefficients 1.05 times
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=60)
    out = tmp_path / "h.json"
    run_report = documents.run_report

    def traced(*args):
        tracemalloc.start()
        return run_report(*args)

    monkeypatch.setattr(documents, "run_report", traced)
    try:
        assert main(["linearize", "germ", "--input", str(problem), "--degree", "60",
                     "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 500_000
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("kind", ["germ", "field"])
def test_every_json_file_the_cli_writes_is_in_json_dumps_form(tmp_path, kind):
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6, kind=kind)
    sources = [problem]
    if kind == "germ":  # a problem that clips, so that its report holds clipped records
        sources.append(tmp_path / "resonant.json")
        sources[-1].write_text(json.dumps(RESONANT_PROBLEM))
    written = [problem]
    for source in sources:
        written.append(tmp_path / f"{source.stem}_all.json")
        assert main(["linearize", kind, "--input", str(source), "--degree", "4", "--method", "all",
                     "--verify", "--clip", "--output", str(written[-1])]) == 0
    for path in written:
        text = path.read_bytes()
        assert text == (json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n").encode(), path


@pytest.mark.parametrize("value", [[INF, 0.0], [0.5, NAN]])
def test_non_finite_coefficient_exits_2(tmp_path, capsys, value):
    # a spectrum entry is checked as it is read; a coefficient is the solvers' to refuse
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem_doc(terms=[{"alpha": [2], "value": [value]}])))
    for method in ("recursive", "tree", "fixedpoint"):
        assert main(["linearize", "germ", "--input", str(path), "--degree", "4",
                     "--method", method]) == 2, method
        err = capsys.readouterr().err
        assert err.startswith("domain error (CoefficientOverflow): "), (method, err)
        assert "degree 2" in err, (method, err)


def test_diagnose_growth_csv(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=5)
    solution = tmp_path / "sol.json"
    main(["linearize", "germ", "--input", str(problem), "--degree", "8",
          "--output", str(solution)])
    code = main(["diagnose", "growth", "--input", str(solution)])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "degree,max_abs"
    assert any(r.startswith("# radius=") for r in rows)


def test_diagnose_family(capsys):
    code = main(["diagnose", "family", "--k", "1", "--omega", f"{GOLDEN:.10f}",
                 "--degree", "24"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("k,omega")
    assert len(rows) == 2


def test_omega_command_tilde_and_hat(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"rotation": [GOLDEN]}))
    assert main(["omega", "--spectrum", str(spec), "--p-max", "6",
                 "--variant", "tilde"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "p,value"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    fieldspec = tmp_path / "field.json"
    fieldspec.write_text(json.dumps({"omega": [-1.0, GOLDEN]}))
    assert main(["omega", "--spectrum", str(fieldspec), "--p-max", "6",
                 "--variant", "hat"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 6


def test_trees_labeled_with_support_file(tmp_path, capsys):
    support = tmp_path / "support.json"
    support.write_text(json.dumps([[2]]))
    assert main(["trees", "enum", "--order", "2", "--labeled", "--alpha", "3",
                 "--axis", "1", "--support", str(support)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    # a series document works as a support source too
    series_doc = tmp_path / "series.json"
    series = VectorSeries.from_coeffs(1, 4, {(2,): (0.5,)})
    series_doc.write_text(canonical_bytes(series_to_doc(series)).decode())
    assert main(["trees", "enum", "--order", "2", "--labeled", "--alpha", "3",
                 "--axis", "1", "--support", str(series_doc)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_diagnose_class_and_condition(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=6)
    solution = tmp_path / "sol.json"
    main(["linearize", "germ", "--input", str(problem), "--degree", "8",
          "--output", str(solution)])
    assert main(["diagnose", "class", "--input", str(solution),
                 "--class-m", "geometric:1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("accepted,")
    # M_k = 1 up to h's top degree is the table of geometric:1
    table = tmp_path / "ones.json"
    table.write_text(json.dumps([1] * 8))
    assert main(["diagnose", "class", "--input", str(solution),
                 "--class-m", f"table:{table}"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == rows

    assert main(["diagnose", "condition", "--omega", f"{GOLDEN:.10f}",
                 "--class-m", "gevrey:1", "--dmax", "50"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "degree,value"
    assert rows[-1].startswith("# max_value=")


def test_bruno_fraction_syntax(capsys):
    assert main(["bruno", "--omega", "1/3", "--terms", "8"]) == 2  # rational
    out = capsys.readouterr().out
    assert "flag=rational" in out


# ---------------------------------------------------------------------------
# the process entry point
# ---------------------------------------------------------------------------


def test_process_report_is_mains(tmp_path, capsys):
    # `python -m treelin.cli` ends through cli.run, which freezes the collector
    # for the interpreter's shutdown; the report on stdout is main's, byte for byte
    problem = _write_problem(tmp_path, n=2, degree_f=3, trunc=6)
    argv = ["linearize", "germ", "--input", str(problem), "--degree", "6", "--verify"]
    assert main(argv) == 0
    report = capsys.readouterr().out.encode()
    proc = run_python("-m", "treelin.cli", *argv, text=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == report
    assert report.startswith(b"{") and report.endswith(b"}\n")


def test_process_exit_codes_are_mains(tmp_path, capsys):
    resonant = tmp_path / "resonant.json"
    resonant.write_text(json.dumps(RESONANT_PROBLEM))
    cases = [
        (["linearize", "germ", "--input", str(tmp_path / "missing.json"), "--degree", "4"],
         1, "usage error: "),
        (["linearize", "germ", "--input", str(resonant), "--degree", "4"], 2, "domain error "),
    ]
    for argv, code, err in cases:
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(err)
        proc = run_python("-m", "treelin.cli", *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(err), proc.stderr


def test_a_reader_that_leaves_early_ends_the_report_quietly(tmp_path):
    # the report, 137 KB, is more than a pipe holds, so it is written while
    # its reader is gone; the reader takes 100 bytes and closes the pipe
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=30)
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    with open(tmp_path / "stderr", "w") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "treelin.cli", "linearize", "germ",
                                 "--input", str(problem), "--degree", "30"], stdout=subprocess.PIPE,
                                stderr=stderr, env={**os.environ, "PYTHONPATH": path})
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        code = proc.wait(timeout=120)
    err = (tmp_path / "stderr").read_text()
    assert code == 0, err
    assert err.startswith("recursive: ") and err.count("\n") == 1, err


def test_only_the_process_entry_point_freezes_the_collector(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    problem = _write_problem(tmp_path, n=2, degree_f=3, trunc=6)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            for method in ("recursive", "tree", "fixedpoint"):
                assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                             "--method", method, "--output", str(tmp_path / "h.json")]) == 0
            assert main(["bruno", "--omega", "1/0"]) == 1
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    assert gc.get_freeze_count() == frozen
    # the module's __main__ runs through run, which turns the collector off for
    # the command and freezes what is tracked on every exit path
    script = (
        "import gc, runpy, sys\n"
        "sys.argv = ['treelin', 'bruno', '--omega', '1/0']\n"
        "try:\n"
        "    runpy.run_module('treelin.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    proc = run_python("-W", "error", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False", "True"]
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert scripts.split("[")[0].strip() == 'treelin = "treelin.cli:run"'


# In a fresh process with the collector off, as under cli.run: what main
# leaves for the collector to free, and the treelin types and the frames of
# treelin functions among it.
_GARBAGE_AUDIT = (
    "import contextlib, gc, io, sys, types\n"
    "gc.disable()\n"
    "import treelin.cli\n"
    "gc.collect()\n"
    "gc.set_debug(gc.DEBUG_SAVEALL)\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = treelin.cli.main(sys.argv[1:])\n"
    "freed = gc.collect()\n"
    "kinds = {type(o) for o in gc.garbage}\n"
    "frames = {'frame:' + o.f_code.co_name for o in gc.garbage if type(o) is types.FrameType\n"
    "          and o.f_globals.get('__name__', '').startswith('treelin')}\n"
    "print(code, freed, *sorted(frames), *sorted(t.__qualname__ for t in kinds\n"
    "                                            if (t.__module__ or '').startswith('treelin')))\n"
)


def test_no_command_leaves_garbage_that_grows_with_its_problem(tmp_path):
    # cli.run keeps the collector off for the whole command, which is safe
    # only while a command's reference cycles do not grow with its problem
    def fixture(kind, n, trunc):
        return _write_problem(tmp_path, seed=trunc, n=n, degree_f=3, trunc=trunc, kind=kind)

    def solution(germ, degree):
        path = tmp_path / f"h{degree}.json"
        assert main(["linearize", "germ", "--input", str(germ), "--degree", str(degree),
                     "--output", str(path)]) == 0
        return path

    germs = fixture("germ", 2, 6), fixture("germ", 3, 10)
    fields = fixture("field", 2, 6), fixture("field", 3, 10)
    planar = fields[0], fixture("field", 2, 12)  # domain diagnostics take n = 2
    solutions = solution(germs[0], 6), solution(germs[1], 10)
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text(json.dumps({"rotation": [GOLDEN]}))
    commands = {
        "linearize recursive": [["linearize", "germ", "--input", str(germs[0]), "--degree", "6"],
                                ["linearize", "germ", "--input", str(germs[1]), "--degree", "10"]],
        "linearize tree": [["linearize", "germ", "--input", str(germs[0]), "--degree", "4",
                            "--method", "tree"],
                           ["linearize", "germ", "--input", str(germs[1]), "--degree", "7",
                            "--method", "tree"]],
        "linearize fixedpoint": [["linearize", "field", "--input", str(fields[0]),
                                  "--degree", "6", "--method", "fixedpoint"],
                                 ["linearize", "field", "--input", str(fields[1]),
                                  "--degree", "10", "--method", "fixedpoint"]],
        "verify": [["verify", "--input", str(g), "--solution", str(h)]
                   for g, h in zip(germs, solutions)],
        "diagnose family": [["diagnose", "family", "--omega", repr(GOLDEN), "--degree", str(D)]
                            for D in (40, 600)],
        "diagnose domain": [["diagnose", "domain", "--input", str(f), "--degree", str(D)]
                            for f, D in zip(planar, (6, 12))],
        "diagnose growth": [["diagnose", "growth", "--input", str(h), "--majorant-r", "0.5"]
                            for h in solutions],
        "diagnose class": [["diagnose", "class", "--input", str(h)] for h in solutions],
        "diagnose condition": [["diagnose", "condition", "--omega", repr(GOLDEN), "--dmax", str(D)]
                               for D in (10, 400)],
        "fixture": [["fixture", "field", "--n", str(n), "--trunc", str(D), "--seed", "2",
                     "--out", str(tmp_path / f"fixture_{D}.json")] for n, D in ((2, 6), (3, 12))],
        "trees enum": [["trees", "enum", "--order", str(order)] for order in (4, 8)],
        "bruno": [["bruno", "--omega", repr(GOLDEN), "--terms", str(terms)] for terms in (5, 60)],
        "omega": [["omega", "--spectrum", str(spectrum), "--p-max", str(p), "--variant", "frac"]
                  for p in (8, 80)],
    }
    # a usage error raised inside a command and a domain error raised deep in a
    # solve: main clears their tracebacks' frames as it turns them into exit codes
    resonant = tmp_path / "resonant.json"
    resonant.write_text(json.dumps({
        "kind": "germ", "n": 2, "D": 4, "spectrum": {"lambda": [[4.0, 0.0], [2.0, 0.0]]},
        "series": {"n": 2, "D": 4, "kind": "vector",
                   "terms": [{"alpha": [0, 2], "value": [[1.0, 0.0], [0.0, 0.0]]}]}}))
    errors = {"1": ["bruno", "--omega", "1/0"],
              "2": ["linearize", "germ", "--input", str(resonant), "--degree", "4"]}
    runs = [(name, argv) for name, pair in commands.items() for argv in pair]
    runs += [(code, argv) for code, argv in errors.items()]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda run: run_python("-c", _GARBAGE_AUDIT, *run[1]), runs))
    freed = {}
    for (name, argv), proc in zip(runs, procs):
        assert proc.returncode == 0, (argv, proc.stderr)
        code, count, *treelin_garbage = proc.stdout.split()
        assert code == (name if name in errors else "0"), argv
        assert treelin_garbage == [], argv
        if name in commands:
            freed.setdefault(name, []).append(int(count))
    assert all(small == large for small, large in freed.values()), freed


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_reused_parser_gives_the_same_bytes(capsys):
    good = ["fixture", "germ", "--n", "2", "--degree-f", "3", "--trunc", "6", "--seed", "5"]
    capsys.readouterr()
    assert main(good) == 0
    first = capsys.readouterr().out
    assert main(good[:2] + ["--n", "7"] + good[4:]) == 1
    assert capsys.readouterr().err.startswith("usage error: argument --n: invalid choice")
    with pytest.raises(SystemExit):
        main(["fixture", "--help"])
    assert capsys.readouterr().out.startswith("usage: treelin fixture")
    assert main(good) == 0
    assert capsys.readouterr().out == first


def test_benchmark_fixtures_in_one_process_match_fresh_processes(tmp_path, monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    plan = workloads.make_plan("tree_cold", 1, workloads.rounds_for("tree_cold", 15))
    argvs = [["fixture", kind, "--n", str(n), "--degree-f", "3", "--trunc", str(D),
              "--seed", str(seed), "--out", str(tmp_path / f"{i}.json")]
             for i, (kind, n, D, seed) in enumerate(plan.fixtures)]
    assert len(argvs) == 18
    for argv in argvs:  # as the benchmark's set-up worker writes them
        assert main(argv) == 0
    for i in (0, 8, 17):
        fresh = tmp_path / f"fresh{i}.json"
        proc = run_python("-m", "treelin.cli", *argvs[i][:-1], str(fresh))
        assert proc.returncode == 0, proc.stderr
        assert fresh.read_bytes() == (tmp_path / f"{i}.json").read_bytes(), argvs[i]


def test_no_argument_carries_state_between_calls():
    # every call of main parses with one parser, so a mutable default or an
    # accumulating action (extend's is a subclass of append's) would carry over
    accumulating = (argparse._AppendAction, argparse._AppendConstAction, argparse._CountAction)
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(subparsers.choices) == 7
    for name, sub in [("treelin", parser), *subparsers.choices.items()]:
        for action in sub._actions:
            assert not isinstance(action, accumulating), (name, action.dest)
            assert not isinstance(action.default, (list, dict, set)), (name, action.dest)
        for dest, value in sub._defaults.items():
            assert not isinstance(value, (list, dict, set)), (name, dest)
