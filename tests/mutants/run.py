"""Apply each mutation of ``mutations.py`` to a copy of the tree and run the tests it names.

    python tests/mutants/run.py [--out FILE] [NAME ...]

Each mutation runs in a fresh temporary copy of ``src/``, ``tests/``,
``perfbench/``, ``README.md``, ``BENCHMARK.json`` (the tests read the last
three) and ``pyproject.toml`` (pytest's settings), with its old text
replaced, by ``python -m pytest -x`` over its test files.  A mutation
whose old text does not occur exactly once is refused before any run.
The JSON written to ``--out`` or stdout gives for each mutation
``killed`` or ``survived``, the first failing test, and the seconds taken.
Tier-1 collects no file here, since none is named ``test_*.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutations import MUTATIONS

ROOT = Path(__file__).resolve().parents[2]
COPIED = ("src", "tests", "perfbench", "README.md", "BENCHMARK.json", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
TIMEOUT_S = 1800


def check(mutation):
    """Refuse a mutation whose old text does not occur exactly once in its file."""
    count = (ROOT / mutation.file).read_text().count(mutation.old)
    if count != 1:
        raise SystemExit(f"{mutation.name}: old text occurs {count} times in {mutation.file}")


def run(mutation) -> dict:
    """Run the mutation's tests on a mutated copy of the tree: killed or survived, and by what."""
    with tempfile.TemporaryDirectory(prefix="treelin-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(source, copy / name)
        target = copy / mutation.file
        target.write_text(target.read_text().replace(mutation.old, mutation.new))
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                 *mutation.tests], cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"status": "killed", "first_failure": f"timeout after {TIMEOUT_S} s",
                    "seconds": TIMEOUT_S}
    seconds = round(time.perf_counter() - start, 1)
    failures = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 0:
        return {"status": "survived", "first_failure": None, "seconds": seconds}
    tail = proc.stdout.strip().splitlines()[-1:] or proc.stderr.strip().splitlines()[-1:]
    return {"status": "killed", "first_failure": failures[0] if failures else
            f"pytest exit {proc.returncode}: {tail[0] if tail else ''}", "seconds": seconds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutations to run (default: all)")
    parser.add_argument("--out", help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTATIONS if not args.names or m.name in args.names]
    unknown = set(args.names) - {m.name for m in MUTATIONS}
    if unknown:
        parser.error(f"no mutation named {sorted(unknown)}")
    for mutation in chosen:
        check(mutation)
    results = []
    for mutation in chosen:
        result = {"name": mutation.name, "file": mutation.file, "breaks": mutation.breaks,
                  "tests": list(mutation.tests), **run(mutation)}
        print(f"{mutation.name}: {result['status']} ({result['first_failure']})", file=sys.stderr)
        results.append(result)
    text = json.dumps(results, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
