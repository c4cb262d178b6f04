"""The canonical writer, the one home of the document format; it loads numpy only for a series."""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

from . import series  # deferred: a document of plain data never runs it

_INDENT = "  "
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_bytes(doc) -> bytes:
    """The canonical form of ``doc``: ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    Keys sorted, two-space indent, one element per line, ASCII escapes,
    floats as Python's shortest ``repr`` and non-finite ones as ``NaN``,
    ``Infinity`` and ``-Infinity``.  A :class:`~treelin.series.ScalarSeries`
    or :class:`~treelin.series.VectorSeries` is written as its
    :func:`~treelin.documents.series_to_doc` document.  Keys must be strings.
    """
    return (_text(doc, 0) + "\n").encode("ascii")


def _text(value, level: int) -> str:
    """``value`` in canonical form, its opening line at indentation ``level``."""
    # scalars in json.encoder's order, so subclasses of int and float
    # (numpy.float64 among them) are written as their base type
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, (list, tuple)):
        return _listing("[]", [_text(v, level + 1) for v in value], level)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"keys must be str, got {list(value)!r}")
        return _listing("{}", [f"{_string(key)}: {_text(value[key], level + 1)}"
                               for key in sorted(value)], level)
    # last, so that a document of plain data never runs treelin.series
    if isinstance(value, (series.ScalarSeries, series.VectorSeries)):
        return _series_text(value, level)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _listing(brackets: str, entries: list, level: int) -> str:
    """A list or object (``brackets`` "[]" or "{}") of written ``entries``, opened at ``level``."""
    if not entries:
        return brackets
    inner = "\n" + _INDENT * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(entries)}\n{_INDENT * level}{brackets[1]}"


def _series_text(s, level: int) -> str:
    """``_text(series_to_doc(s), level)``, written from the coefficient array.

    Each nonzero slot fills one term template with its index and the real
    and imaginary parts of its coefficients, component by component.
    """
    import numpy as np  # only a series object is written with numpy

    n, scalar = s.n, isinstance(s, series.ScalarSeries)
    rows = s.vector[np.newaxis] if scalar else s.to_array()
    used = np.flatnonzero(rows.any(axis=0))
    # re, im of each component, slot by slot
    floats = np.ascontiguousarray(rows[:, used].T).view(float).ravel().tolist()
    # A NaN or an infinity makes the sum non-finite.  The first numpy.isfinite
    # call of a process would map 64 KB more.
    parts = list(map(float.__repr__ if math.isfinite(sum(floats)) else _float, floats))
    pair = _listing("[]", ["%s", "%s"], level + 4 - scalar)
    value = pair if scalar else _listing("[]", [pair] * n, level + 3)
    template = _listing("{}", ['"alpha": ' + _listing("[]", ["%d"] * n, level + 3),
                               '"value": ' + value], level + 2)
    indices = series.graded_indices(n, s.trunc)
    width = 2 * len(rows)
    terms = [template % (*indices[i], *parts[t:t + width])
             for t, i in zip(range(0, len(parts), width), used.tolist())]
    return _listing("{}", [f'"D": {s.trunc}', f'"kind": "{"scalar" if scalar else "vector"}"',
                           f'"n": {n}', '"terms": ' + _listing("[]", terms, level + 1)], level)
