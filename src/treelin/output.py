"""Where a command's text goes: the file it names, or stdout.

Shared by :mod:`treelin.cli` and :mod:`treelin.commands`.  The commands
cannot import it from ``cli``: under ``python -m treelin.cli`` that module
runs as ``__main__``, and importing ``treelin.cli`` would compile and run
it a second time.
"""

from __future__ import annotations

import sys

from .errors import UsageError


def emit(text: str, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)
