"""Where a command's text goes: the file it names, or stdout.

Shared by :mod:`treelin.cli`, :mod:`treelin.commands` and
:mod:`treelin.fixture`.  The commands cannot import it from ``cli``: under
``python -m treelin.cli`` that module runs as ``__main__``, and importing
``treelin.cli`` would compile and run it a second time.
"""

from __future__ import annotations

import sys

from .errors import UsageError


def send(write, path: str | None):
    """Call ``write(stream)`` with the file at ``path`` opened for text, or with stdout when no path is given.

    An OSError while the file is opened or written is a usage error that names ``path``.
    A reader of stdout that leaves early, as ``| head`` does, ends the writing quietly.
    """
    if not path:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest has no reader; stdout goes to devnull, so that the
            # flush at exit does not fail on it again
            import os

            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def emit(text: str, path: str | None):
    """Write ``text`` to the file at ``path``, or to stdout when no path is given."""
    send(lambda stream: stream.write(text), path)
