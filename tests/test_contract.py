"""The CLI contract: every input ends in a result or in one line that names what went wrong.

Each example edits one field of a valid problem document, or one argument
of a valid command line, and runs ``cli.main`` in process.  Its outcome is
exactly one of: exit 0; exit 1 with one ``usage error:`` line, then the
usage synopsis; exit 2 with one ``domain error (<Name>):`` line, after the
notes of any routes that finished.  An exception out of ``main`` (a
traceback from the console script) fails, and so does a RuntimeWarning,
which the test configuration turns into an error.
"""

from __future__ import annotations

import cmath
import contextlib
import copy
import io
import json
import math
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from treelin.cli import build_parser, main

# what each field of a document is set to: null, non-finite and huge
# numbers, strings, booleans, containers of the wrong shape or length
VALUES = [None, math.nan, math.inf, -math.inf, "", "x", "2", True, False, [], {}, [1], [1, 2, 3],
          [[1, 0]], [None, None], ["a", "b"], -1, 0, 1, 2, 7, 0.5, -0.5, 2.0, 1e308, -1e308,
          2**64, 10**400]
# what one argument of a command line is set to
ARGUMENTS = ["", "x", "-1", "0", "1", "7", "nan", "inf", "1e308", "1" + "0" * 400, "2/3", "germ",
             "field", "tree", "all", "--verify", "--clip", "--degree", "--input"]
SETTINGS = settings(derandomize=True, deadline=None, database=None)
REMOVE = object()  # an edit that deletes the field


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Problems at n = 2, truncation 6: a rotation germ, the same germ by eigenvalues, a field; their solutions."""
    folder = tmp_path_factory.mktemp("contract")
    paths = {"folder": folder}
    for kind in ("germ", "field"):
        paths[kind] = str(folder / f"{kind}.json")
        assert main(["fixture", kind, "--n", "2", "--degree-f", "3", "--trunc", "6", "--seed", "1",
                     "--out", paths[kind]]) == 0
    doc = json.loads((folder / "germ.json").read_text())
    doc["spectrum"] = {"lambda": [[z.real, z.imag] for z in
                                  (cmath.exp(2j * math.pi * w) for w in doc["spectrum"]["rotation"])]}
    paths["lambda"] = str(folder / "lambda.json")
    (folder / "lambda.json").write_text(json.dumps(doc))
    for name, kind in (("germ", "germ"), ("field", "field"), ("lambda", "germ")):
        paths[name + "_h"] = str(folder / f"{name}_h.json")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["linearize", kind, "--input", paths[name], "--degree", "6",
                         "--output", paths[name + "_h"]]) == 0
    return paths


def one_outcome(argv) -> int:
    """Run ``argv`` and check that it ends in exactly one outcome of the contract; its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    lines = text.splitlines()
    said = [line for line in lines if line.startswith(("usage error", "domain error", "Traceback"))]
    if code == 0:
        assert not said, (argv, text)
    elif code == 1:
        assert said == lines[:1] and said[0].startswith("usage error: "), (argv, text)
        assert text == said[0] + "\n" + build_parser().format_usage(), (argv, text)
    else:
        assert code == 2, (argv, code, text)
        assert said == lines[-1:] and re.match(r"domain error \(\w+\): ", said[0]), (argv, text)
    return code


def fields(doc, path=()):
    """Every path into ``doc``: keys of objects, and the first two entries of lists."""
    yield path
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from fields(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, entry in enumerate(doc[:2]):
            yield from fields(entry, path + (i,))


def edited(doc, path, value):
    """``doc`` with the field at ``path`` set to ``value``, or deleted for ``REMOVE``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@settings(SETTINGS, max_examples=250)
@given(data=st.data())
def test_an_edited_document_ends_in_one_outcome(files, data):
    name = data.draw(st.sampled_from(["germ", "field", "lambda"]))
    kind = "field" if name == "field" else "germ"
    with open(files[name]) as fh:
        doc = json.load(fh)
    path = data.draw(st.sampled_from(list(fields(doc))))
    value = data.draw(st.sampled_from(VALUES + ([REMOVE] if path else [])))
    problem = str(files["folder"] / "edited.json")
    with open(problem, "w") as fh:
        json.dump(edited(doc, path, value), fh)
    for argv in (["linearize", kind, "--input", problem, "--degree", "4"],
                 ["linearize", kind, "--input", problem, "--degree", "4", "--method", "all"],
                 ["verify", "--input", problem, "--solution", files[name + "_h"]],
                 ["diagnose", "domain", "--input", problem, "--degree", "6"]):
        one_outcome(argv)


@settings(SETTINGS, max_examples=150)
@given(data=st.data())
def test_an_edited_command_line_ends_in_one_outcome(files, data):
    germ, field = files["germ"], files["field"]
    argv = data.draw(st.sampled_from([
        ["linearize", "germ", "--input", germ, "--degree", "4", "--method", "recursive"],
        ["linearize", "field", "--input", field, "--degree", "4", "--method", "all"],
        ["verify", "--input", germ, "--solution", files["germ_h"]],
        ["diagnose", "domain", "--input", field, "--degree", "6"],
    ]))
    assert one_outcome(argv) == 0
    i = data.draw(st.integers(0, len(argv) - 1))
    value = data.draw(st.sampled_from(ARGUMENTS + [germ, field, files["germ_h"], str(files["folder"])]))
    one_outcome(argv[:i] + [value] + argv[i + 1:])


def test_inputs_beyond_double_precision_are_refused(files, capsys):
    # a truncation numpy cannot index and a spectrum whose divisors overflow
    # are usage errors where they are read; the truncation is read only
    # where a command reads through it
    with open(files["germ"]) as fh:
        germ = json.load(fh)
    with open(files["field"]) as fh:
        field = json.load(fh)
    with open(files["lambda"]) as fh:
        by_eigenvalues = json.load(fh)
    problem = str(files["folder"] / "beyond.json")
    with open(problem, "w") as fh:
        json.dump(edited(edited(field, ("D",), 2**64), ("series", "D"), 2**64), fh)
    assert main(["diagnose", "domain", "--input", problem]) == 1
    assert "malformed series document" in capsys.readouterr().err.splitlines()[0]
    assert main(["linearize", "field", "--input", problem, "--degree", "4"]) == 0
    capsys.readouterr()
    with open(problem, "w") as fh:
        json.dump(edited(by_eigenvalues, ("spectrum", "lambda", 0, 0), 1e308), fh)
    for argv in (["linearize", "germ", "--input", problem, "--degree", "4"],
                 ["verify", "--input", problem, "--solution", files["germ_h"]]):
        assert main(argv) == 1, argv
        assert "overflow double precision" in capsys.readouterr().err.splitlines()[0], argv
    # a defect that is not finite is not within any tolerance
    for value, defect in ((math.inf, "nan"), (1e308, "inf")):
        with open(problem, "w") as fh:
            json.dump(edited(germ, ("series", "terms", 0, "value", 0, 0), value), fh)
        assert main(["verify", "--input", problem, "--solution", files["germ_h"]]) == 2, value
        assert capsys.readouterr().err.startswith(
            f"domain error (ConjugacyDefect): conjugacy defect {defect} exceeds"), value
