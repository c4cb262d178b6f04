"""The README's examples run as written: the library quick tour and the CLI block."""

from __future__ import annotations

import re
import shlex
import subprocess
from pathlib import Path

from treelin import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language: str) -> list:
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_quick_tour_runs(capsys):
    (tour,) = _blocks("python")
    exec(compile(tour, str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3


def test_cli_block_runs(tmp_path, monkeypatch):
    (block,) = [b for b in _blocks("sh") if "treelin " in b]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)
        if argv[0] == "treelin":
            assert cli.main(argv[1:]) == 0, command
        else:  # shell set-up, such as writing an input file
            subprocess.run(command, shell=True, check=True, cwd=tmp_path)
    assert (tmp_path / "solution.json").exists()
