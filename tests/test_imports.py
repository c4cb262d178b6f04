"""The import contract: `treelin.trees` and `treelin.diagnostics` are registered at import and run on first use.

A dense `linearize` process (recursive or fixed point) runs neither of them.
No `linearize` or `diagnose family|domain` process loads OpenSSL
(`_hashlib`), `fractions`, `decimal`, `dataclasses` or `statistics`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import treelin
from treelin import cli, documents, linearize

from conftest import GOLDEN, ROOT, run_python

DEFERRED = ("treelin.trees", "treelin.diagnostics")
# stdlib modules that a solve or a growth diagnostic has no use for;
# dataclasses builds its methods by exec when a class is defined
HEAVY = ("_hashlib", "fractions", "decimal", "dataclasses", "statistics")


def executed_after(commands: list, heavy: bool = False) -> dict:
    """Which deferred modules have run after ``treelin.cli.main`` ran each command.

    With ``heavy``, also which of ``HEAVY`` are loaded.
    """
    script = (
        "import sys, types\n"
        "import treelin.cli as cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        f"for name in {DEFERRED!r}:\n"
        "    print(name, type(sys.modules[name]) is types.ModuleType)\n"
        f"for name in {HEAVY if heavy else ()!r}:\n"
        "    print(name, name in sys.modules)\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    return {name: ran == "True" for name, ran in (line.split() for line in proc.stdout.splitlines())}


def fixture_args(tmp_path, kind: str, n: int, D: int) -> tuple:
    path = str(tmp_path / f"{kind}.json")
    return path, ["fixture", kind, "--n", str(n), "--degree-f", "3", "--trunc", str(D),
                  "--seed", "1", "--out", path]


def test_cli_import_registers_every_traced_module():
    # the benchmark tracer looks its targets up in sys.modules right after
    # `import treelin.cli`, before any command has run
    script = (
        "import sys\n"
        "import treelin.cli\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import tracer\n"
        "missing = [m for m, _, _ in tracer._SPAN_TARGETS if f'treelin.{m}' not in sys.modules]\n"
        "print('missing', missing)\n"
        "tracer.Tracer().install()\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["missing []"]


def test_dense_linearize_runs_neither_trees_nor_diagnostics(tmp_path):
    # nor loads any of HEAVY: the report is written, so its input digest is
    # computed; the fixture is made here, since numpy.random loads hashlib
    for kind in ("germ", "field"):
        path, make = fixture_args(tmp_path, kind, 2, 8)
        assert cli.main(make) == 0
        for method in ("recursive", "fixedpoint"):
            solve = ["linearize", kind, "--input", path, "--degree", "8", "--method", method,
                     "--verify", "--output", str(tmp_path / "h.json")]
            loaded = executed_after([solve], heavy=True)
            assert not any(loaded.values()), (kind, method, loaded)


def test_tree_method_and_diagnose_run_what_they_use(tmp_path):
    path, make = fixture_args(tmp_path, "germ", 1, 6)
    tree = ["linearize", "germ", "--input", path, "--degree", "6", "--method", "tree",
            "--output", str(tmp_path / "h.json")]
    assert executed_after([make, tree]) == {"treelin.trees": True, "treelin.diagnostics": False}
    family = ["diagnose", "family", "--omega", "0.6180339887498949", "--degree", "12",
              "--output", str(tmp_path / "family.txt")]
    assert executed_after([family]) == {"treelin.trees": False, "treelin.diagnostics": True}
    bruno = ["bruno", "--omega", "0.6180339887498949", "--terms", "8",
             "--output", str(tmp_path / "bruno.csv")]
    assert executed_after([bruno]) == {"treelin.trees": False, "treelin.diagnostics": False}
    assert (tmp_path / "bruno.csv").read_text().splitlines()[0] == "k,a_k,q_k,term,partial_sum"


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
        loaded = executed_after([argv], heavy=True)
        assert not any(loaded[name] for name in HEAVY), (argv, loaded)


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
    assert linearize.trees is sys.modules["treelin.trees"]
    assert treelin.trees is sys.modules["treelin.trees"]
    assert treelin.diagnostics is sys.modules["treelin.diagnostics"]


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
    ]
    for argv in commands:
        proc = run_python("-W", "error", "-m", "treelin.cli", *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Warning" not in proc.stderr, (argv, proc.stderr)


def test_deferred_module_reports_its_missing_dependency():
    # the error of a deferred module's own import surfaces unchanged; numpy
    # goes missing after `import treelin` has loaded it, before
    # treelin.diagnostics runs and imports it
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
    for name in treelin.__all__:
        obj = getattr(treelin, name)
        assert obj.__module__.startswith("treelin."), name
    assert set(treelin.__all__) <= set(dir(treelin))
    try:
        treelin.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("an unknown name resolved")
    for name in DEFERRED:
        assert type(sys.modules[name]) is types.ModuleType
