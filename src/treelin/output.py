"""Where a command's text goes: the file it names, or stdout.

Shared by :mod:`treelin.cli`, :mod:`treelin.commands` and
:mod:`treelin.fixture`.  The commands cannot import it from ``cli``: under
``python -m treelin.cli`` that module runs as ``__main__``, and importing
``treelin.cli`` would compile and run it a second time.
"""

from __future__ import annotations

import os
import sys

from .errors import UsageError


def send(write, path: str | None):
    """Call ``write(stream)`` with the file at ``path`` opened for text, or with stdout when no path is given.

    A regular file is made beside its real target and renamed over it, with the target's mode,
    once ``write`` returns, or deleted on any exception.  An OSError is a usage error that names
    ``path``.  A reader of stdout that leaves early, as ``| head`` does, ends the writing quietly.
    """
    if not path:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the rest has no reader; stdout goes to devnull, so that the
            # flush at exit does not fail on it again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    partial = f"{os.path.realpath(path) if os.path.islink(path) else path}.{os.getpid()}.partial"
    try:
        if os.path.exists(path) and not os.path.isfile(path):  # /dev/null, a FIFO: in place
            with open(path, "w", encoding="utf-8") as fh:
                write(fh)
            return
        fd = os.open(partial, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                if os.path.exists(path):
                    os.fchmod(fd, os.stat(path).st_mode & 0o7777)
                write(fh)
            os.replace(partial, partial.rsplit(".", 2)[0])  # the real target
        except BaseException:
            os.unlink(partial)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def emit(text: str, path: str | None):
    """Write ``text`` to the file at ``path``, or to stdout when no path is given."""
    send(lambda stream: stream.write(text), path)
