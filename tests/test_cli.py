"""Document round-trips, CLI behavior, determinism, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from treelin import Germ, GermSpectrum, VectorSeries, linearize
from treelin.cli import main
from treelin.documents import (
    canonical_bytes,
    digest,
    problem_from_doc,
    problem_to_doc,
    series_from_doc,
    series_to_doc,
)
from treelin.series import ScalarSeries

from conftest import GOLDEN, random_vector_series


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
    doc = problem_to_doc(germ)
    back = problem_from_doc(doc)
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

    # verify the emitted solution against the problem document
    code = main(["verify", "--input", str(problem), "--solution", str(out)])
    assert code == 0


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
        rep = check(germ, linearize.solve(germ, 6, method))
        expected = {**json.loads(plain.read_text()), "verified": {
            "max_abs": rep.max_abs, "znorm": rep.znorm, "max_rel": rep.max_rel}}
        assert verified.read_bytes() == canonical_bytes(expected), method


def test_verify_rejects_wrong_solution(tmp_path, capsys):
    problem = _write_problem(tmp_path, seed=2)
    bogus = tmp_path / "bogus.json"
    series = VectorSeries.from_coeffs(1, 8, {(2,): (0.5,)})
    bogus.write_text(canonical_bytes(series_to_doc(series)).decode())
    code = main(["verify", "--input", str(problem), "--solution", str(bogus)])
    assert code == 2


def test_linearize_deterministic_across_runs_and_threads(tmp_path):
    problem = _write_problem(tmp_path, seed=4, n=2, degree_f=3, trunc=5)
    outputs = []
    for threads in ("1", "8", "1"):
        out = tmp_path / f"out_{len(outputs)}.json"
        os.environ["TREELIN_THREADS"] = threads
        try:
            code = main([
                "linearize", "germ", "--input", str(problem), "--degree", "5",
                "--method", "all", "--output", str(out),
            ])
        finally:
            del os.environ["TREELIN_THREADS"]
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_tree_note_reports_the_plan_counts(tmp_path, capsys):
    # the counts belong to the method: every contributing labeling of the
    # n=2 degree-3 fixture up to degree 6 is one summand, 1,868 monomials
    problem = _write_problem(tmp_path, seed=1, n=2, degree_f=3, trunc=6)
    out = tmp_path / "tree.json"
    capsys.readouterr()
    assert main(["linearize", "germ", "--input", str(problem), "--degree", "6",
                 "--method", "tree", "--output", str(out)]) == 0
    note = capsys.readouterr().err
    assert ("degrees 2..6: summands [6, 32, 236, 2048, 19288], "
            "monomials [6, 30, 122, 426, 1284]") in note
    assert "summands" not in out.read_text()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["linearize"]) == 1
    assert main(["bruno"]) == 1
    assert main(["linearize", "germ", "--input", "missing.json",
                 "--degree", "4"]) == 1
    capsys.readouterr()
    problem = _write_problem(tmp_path)
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
    ]
    omega_spectra = [("tilde", {"rotation": [0.3, 0.3]}), ("tilde", {"lambda": [[]]}),
                     ("frac", {"rotation": ["x"]}), ("hat", [GOLDEN])]
    # numbers of the wrong JSON type, which float() and complex() would coerce
    for variant, key in (("tilde", "rotation"), ("frac", "rotation"), ("frac", "omega"),
                         ("hat", "omega")):
        omega_spectra += [(variant, {key: ["0.3"]}), (variant, {key: [True]})]
    omega_spectra += [("tilde", {"lambda": [["0.6", 0.8]]}), ("tilde", {"lambda": [[True, 0.0]]})]
    for variant, spectrum in omega_spectra:
        path = tmp_path / f"spectrum_{len(bad_args)}.json"
        path.write_text(json.dumps(spectrum))
        bad_args.append(["omega", "--spectrum", str(path), "--p-max", "3", "--variant", variant])
    for name, doc in MALFORMED_PROBLEMS.items():
        path = tmp_path / f"{name.replace(' ', '_')}.json"
        path.write_text(json.dumps(doc))
        bad_args.append(["linearize", "germ", "--input", str(path), "--degree", "4"])
    for argv in bad_args:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error: "), (argv, err)
        assert "Traceback" not in err, argv


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


def test_domain_error_exit_2(tmp_path):
    # resonant eigenvalues: solving must fail with a structured domain error
    doc = {
        "kind": "germ", "n": 2, "D": 4,
        "spectrum": {"lambda": [[4.0, 0.0], [2.0, 0.0]]},
        "series": {
            "n": 2, "D": 4, "kind": "vector",
            "terms": [{"alpha": [0, 2], "value": [[1.0, 0.0], [0.0, 0.0]]}],
        },
    }
    path = tmp_path / "resonant.json"
    path.write_text(json.dumps(doc))
    assert main(["linearize", "germ", "--input", str(path),
                 "--degree", "4"]) == 2
    # clip mode turns it into a non-conforming success
    out = tmp_path / "clipped.json"
    assert main(["linearize", "germ", "--input", str(path), "--degree", "4",
                 "--clip", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["conforming"] is False
    assert report["clipped"]


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

    assert main(["diagnose", "condition", "--omega", f"{GOLDEN:.10f}",
                 "--class-m", "gevrey:1", "--dmax", "50"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "degree,value"
    assert rows[-1].startswith("# max_value=")


def test_bruno_fraction_syntax(capsys):
    assert main(["bruno", "--omega", "1/3", "--terms", "8"]) == 2  # rational
    out = capsys.readouterr().out
    assert "flag=rational" in out
