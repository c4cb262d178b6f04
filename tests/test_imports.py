"""The import contract: each command runs only the treelin modules it uses.

`import treelin` registers the modules of ``DEFERRED`` and runs their code
on first use; every process runs the modules of ``EAGER``, and those of
``IMPORTED`` run when a module that imports them runs.  A dense
`linearize` process (recursive or fixed point) runs neither `trees` nor
`diagnostics`.  No `linearize` or `diagnose family|domain` process loads
OpenSSL (`_hashlib`), `fractions`, `decimal`, `dataclasses` or
`statistics`.  `import treelin.cli`, `--help`, a usage error,
`fixture`, `trees enum`, `bruno`, `omega --variant frac` and the index
helpers load no numpy.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

import treelin
from treelin import cli, divisors, documents, linearize, series

from conftest import GOLDEN, ROOT, run_python

DEFERRED = ("treelin.series", "treelin.divisors", "treelin.linearize", "treelin.trees",
            "treelin.treesum", "treelin.families", "treelin.bruno", "treelin.diagnostics",
            "treelin.documents", "treelin.commands", "treelin.fixture")
EAGER = ("treelin", "treelin.cli", "treelin.errors", "treelin.output")
IMPORTED = ("treelin.canonical", "treelin.indices", "treelin.records")
# what every solve runs, by short name
SOLVER = {"series", "divisors", "linearize", "indices", "records"}
# what reading or writing a document runs
DOCUMENTS = {"documents", "canonical"}
# stdlib modules that a solve or a growth diagnostic has no use for;
# dataclasses builds its methods by exec when a class is defined
HEAVY = ("_hashlib", "fractions", "decimal", "dataclasses", "statistics")


def executed_after(commands: list, heavy: tuple = ()) -> set:
    """The treelin modules past ``EAGER`` that have run after ``treelin.cli.main`` ran each command.

    By short name, with those of ``heavy`` that are loaded.  Every treelin
    module in ``sys.modules`` must be one of ``EAGER``, ``DEFERRED`` or
    ``IMPORTED``, every one of ``EAGER`` and ``DEFERRED`` must be there, and
    every one of ``EAGER`` must have run.
    """
    script = (
        "import sys, types\n"
        "import treelin.cli as cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.split('.')[0] == 'treelin':\n"
        "        print(name, type(module) is types.ModuleType)\n"
        f"for name in {heavy!r}:\n"
        "    print(name, name in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    state = dict(line.split() for line in proc.stdout.splitlines())
    modules = {name for name in state if name.split(".")[0] == "treelin"}
    assert set(EAGER) | set(DEFERRED) <= modules <= set(EAGER) | set(DEFERRED) | set(IMPORTED), modules
    assert all(state[name] == "True" for name in EAGER), state
    return {name.rpartition(".")[2] for name, ran in state.items()
            if ran == "True" and name not in EAGER}


def fixture_args(tmp_path, kind: str, n: int, D: int) -> tuple:
    path = str(tmp_path / f"{kind}.json")
    return path, ["fixture", kind, "--n", str(n), "--degree-f", "3", "--trunc", str(D),
                  "--seed", "1", "--out", path]


def test_cli_import_registers_every_traced_module(tmp_path):
    # the benchmark tracer looks its targets up in sys.modules right after
    # `import treelin.cli`, before any command has run; installed, it must
    # reach the callers of the names that moved to treelin.bruno and
    # treelin.families, which it still looks up in divisors and series
    path, make = fixture_args(tmp_path, "germ", 2, 6)
    assert cli.main(make) == 0
    commands = [
        ["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12",
         "--output", str(tmp_path / "family.csv")],
        ["linearize", "germ", "--input", path, "--degree", "6", "--method", "fixedpoint",
         "--output", str(tmp_path / "h.json")],
    ]
    script = (
        "import sys\n"
        "import treelin.cli\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracer\n"
        "missing = [m for m, _, _ in tracer._SPAN_TARGETS if f'treelin.{m}' not in sys.modules]\n"
        "print('missing', missing)\n"
        "tr = tracer.Tracer()\n"
        "tr.install()\n"
        "tr.enabled = True\n"
        f"for argv in {commands!r}:\n"
        "    assert treelin.cli.main(argv) == 0, argv\n"
        "    print(' '.join(sorted(tr.stats)))\n"
        "    tr.stats.clear()\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    found, family, fixedpoint = proc.stdout.splitlines()
    assert found == "missing []"
    assert "divisors.bruno_proxy" in family.split(), family
    assert "series.shift_expand" in fixedpoint.split(), fixedpoint


def test_dense_linearize_runs_neither_trees_nor_diagnostics(tmp_path):
    # only documents, and families for the fixed point, and none of HEAVY:
    # the report is written, so its input digest is computed
    for kind in ("germ", "field"):
        path, make = fixture_args(tmp_path, kind, 2, 8)
        assert cli.main(make) == 0
        for method, runs in (("recursive", DOCUMENTS | SOLVER),
                             ("fixedpoint", DOCUMENTS | {"families"} | SOLVER)):
            solve = ["linearize", kind, "--input", path, "--degree", "8", "--method", method,
                     "--verify", "--output", str(tmp_path / "h.json")]
            assert executed_after([solve], heavy=HEAVY) == runs, (kind, method)


def test_tree_method_and_diagnose_run_what_they_use(tmp_path):
    germ, make_germ = fixture_args(tmp_path, "germ", 1, 6)
    field, make_field = fixture_args(tmp_path, "field", 2, 12)
    assert cli.main(make_germ) == 0 and cli.main(make_field) == 0
    out, table = str(tmp_path / "out"), tmp_path / "bruno.csv"
    runs = [
        (["linearize", "germ", "--input", germ, "--degree", "6", "--method", "tree",
          "--output", out], DOCUMENTS | {"treesum"} | SOLVER),
        (["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12", "--output", out],
         {"commands", "diagnostics", "bruno"} | SOLVER),
        (["diagnose", "domain", "--input", field, "--degree", "12", "--output", out],
         {"commands", "diagnostics", "bruno"} | DOCUMENTS | SOLVER),
        (["diagnose", "condition", "--omega", repr(GOLDEN), "--dmax", "10", "--output", out],
         {"commands", "diagnostics", "bruno", "trees"} | SOLVER),
        (["bruno", "--omega", repr(GOLDEN), "--terms", "8", "--output", str(table)],
         {"commands", "bruno", "indices", "records"}),
        (["trees", "enum", "--order", "4", "--output", out],
         {"commands", "trees", "indices", "records"}),
    ]
    for argv, modules in runs:
        assert executed_after([argv]) == modules, argv
    assert table.read_text().splitlines()[0] == "k,a_k,q_k,term,partial_sum"


@pytest.mark.parametrize("what,extra", [("growth", ["--majorant-r", "0.5"]), ("class", [])],
                         ids=["growth", "class"])
def test_fits_of_a_stored_h_run_no_bruno_arithmetic(tmp_path, what, extra):
    germ, make_germ = fixture_args(tmp_path, "germ", 1, 6)
    h = str(tmp_path / "h.json")
    assert cli.main(make_germ) == 0
    assert cli.main(["linearize", "germ", "--input", germ, "--degree", "6", "--output", h]) == 0
    argv = ["diagnose", what, "--input", h, "--output", str(tmp_path / "out")] + extra
    assert executed_after([argv]) == {"commands", "diagnostics"} | DOCUMENTS | SOLVER


def test_tree_and_diagnose_processes_load_nothing_heavy(tmp_path):
    germ, make_germ = fixture_args(tmp_path, "germ", 1, 6)
    field, make_field = fixture_args(tmp_path, "field", 2, 12)
    assert cli.main(make_germ) == 0 and cli.main(make_field) == 0
    out = str(tmp_path / "out")
    commands = [
        ["linearize", "germ", "--input", germ, "--degree", "6", "--method", "tree", "--verify",
         "--emit-csv", out + ".csv", "--output", out + ".json"],
        ["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12", "--emit-csv", out],
        ["diagnose", "domain", "--input", field, "--degree", "12", "--output", out],
    ]
    for argv in commands:
        assert not executed_after([argv], heavy=HEAVY) & set(HEAVY), argv


def test_fixture_help_and_usage_errors_load_no_numpy(tmp_path):
    # the fixture's stream is numpy's PCG64 in Python and its document plain
    # data; numpy.random would also load secrets, hmac and OpenSSL
    _, make = fixture_args(tmp_path, "field", 3, 6)
    script = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'\n"
        "                 or m in ('secrets', 'hmac', '_hashlib')))\n"
        "import treelin.cli as cli\n"
        "loaded()\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(['--help'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded()\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['linearize', 'germ', '--input', 'missing.json', '--degree', '1']) == 1\n"
        "loaded()\n"
        f"assert cli.main({make!r}) == 0\n"
        "loaded()\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"] * 4, proc.stdout
    # the fixture writes through the canonical writer alone: no documents, no digest
    assert executed_after([make], heavy=("_sha2", "_sha256")) == {"fixture", "canonical", "indices"}


def test_pure_commands_and_index_helpers_load_no_numpy(tmp_path):
    # trees, the Bruno series and the frac minima are integer and float
    # arithmetic; they reach series and divisors only through deferred names
    spectrum = tmp_path / "spectrum.json"
    spectrum.write_text('{"rotation": [0.618]}')
    commands = [["trees", "enum", "--order", "4"],
                ["trees", "enum", "--labeled", "--alpha", "2,1", "--order", "3"],
                ["bruno", "--omega", "0.618"],
                ["omega", "--spectrum", str(spectrum), "--p-max", "8", "--variant", "frac"]]
    script = (
        "import contextlib, io, sys\n"
        "import treelin, treelin.cli as cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "assert treelin.degree((1, 2)) == treelin.abs_degree((1, -2)) == 3\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"], proc.stdout


def test_cli_run_as_a_module_is_not_imported_again(tmp_path):
    # `python -m treelin.cli` runs cli.py as __main__: a module that imported
    # treelin.cli would compile and run it a second time
    path, make = fixture_args(tmp_path, "germ", 1, 6)
    assert cli.main(make) == 0
    for argv in (["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12"],
                 ["linearize", "germ", "--input", path, "--degree", "6", "--method", "tree"]):
        script = (
            "import runpy, sys\n"
            f"sys.argv = ['treelin', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('treelin.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('treelin.cli' in sys.modules, file=sys.stderr)\n"
        )
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "False", (argv, proc.stderr)


def test_digest_is_the_sha256_of_the_canonical_bytes(tmp_path):
    # documents hashes with CPython's built-in SHA-256 (_sha2 from 3.12 on,
    # _sha256 before), which must agree with hashlib's
    path, make = fixture_args(tmp_path, "field", 2, 5)
    report = tmp_path / "h.json"
    assert cli.main(make) == 0
    assert cli.main(["linearize", "field", "--input", path, "--degree", "5",
                     "--output", str(report)]) == 0
    problem, solution = (json.loads(p.read_text()) for p in (Path(path), report))
    assert solution["input_digest"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
    for doc in (problem, solution):
        assert documents.digest(doc) == hashlib.sha256(documents.canonical_bytes(doc)).hexdigest()


def test_linearize_binds_the_registered_trees():
    # the importers hold the registered modules, not copies run again
    assert linearize.treesum is sys.modules["treelin.treesum"]
    assert linearize.families is sys.modules["treelin.families"]
    assert cli.commands is sys.modules["treelin.commands"]
    assert cli.documents is sys.modules["treelin.documents"]
    for name in DEFERRED:
        assert getattr(treelin, name.rpartition(".")[2]) is sys.modules[name]


def test_only_the_traced_names_are_forwarded():
    # the benchmark tracer still looks these up in divisors and series; any
    # other name, __path__ included, must not load the module they moved to
    from treelin import bruno, families

    assert divisors.bruno_proxy is bruno.bruno_proxy
    assert series.SeriesFamily is families.SeriesFamily
    assert series.shift_expand is families.shift_expand
    for module, name in ((divisors, "omega_frac"), (divisors, "__path__"),
                         (series, "formal_derivative"), (series, "__path__")):
        assert not hasattr(module, name), (module.__name__, name)


def test_cli_module_runs_without_warnings(tmp_path):
    # each command a fresh process, ended by cli.run as the console script ends
    proc = run_python("-W", "error", "-m", "treelin.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: treelin")
    path, make = fixture_args(tmp_path, "germ", 2, 6)
    commands = [make]
    for method in ("recursive", "tree", "fixedpoint", "all"):
        commands.append(["linearize", "germ", "--input", path, "--degree", "6", "--method", method,
                         "--verify", "--output", str(tmp_path / f"{method}.json")])
    commands += [
        ["diagnose", "family", "--omega", repr(GOLDEN), "--degree", "12",
         "--output", str(tmp_path / "family.csv")],
        ["bruno", "--omega", repr(GOLDEN), "--terms", "8", "--output", str(tmp_path / "bruno.csv")],
        ["diagnose", "condition", "--omega", repr(GOLDEN), "--dmax", "10",
         "--output", str(tmp_path / "condition.csv")],
        ["trees", "enum", "--order", "4", "--output", str(tmp_path / "trees.txt")],
    ]
    for argv in commands:
        proc = run_python("-W", "error", "-m", "treelin.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Warning" not in proc.stderr, (argv, proc.stderr)


def test_deferred_module_reports_its_missing_dependency():
    # the error of a deferred module's own import surfaces unchanged; numpy
    # goes missing before treelin.diagnostics runs and imports it
    script = (
        "import sys\n"
        "import treelin\n"
        "sys.modules['numpy'] = None\n"
        "try:\n"
        "    treelin.growth_report\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(type(exc).__name__, exc.name)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ModuleNotFoundError", "numpy"]


def test_every_public_name_resolves():
    assert len(set(treelin.__all__)) == len(treelin.__all__)
    homes = set()
    for name in treelin.__all__:
        obj = getattr(treelin, name)
        assert obj.__module__.startswith("treelin."), name
        homes.add(obj.__module__)
    assert set(treelin.__all__) <= set(dir(treelin))
    try:
        treelin.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")
    # resolving a name ran the deferred module it lives in
    assert {"treelin.bruno", "treelin.diagnostics", "treelin.families", "treelin.trees"} <= homes
    for name in homes:
        assert type(sys.modules[name]) is types.ModuleType
