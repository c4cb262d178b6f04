"""The canonical writer of JSON documents: plain data only, so it loads no numpy.

:func:`treelin.documents.series_to_doc` lays a series out as plain data first.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INDENT = "  "
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_bytes(doc) -> bytes:
    """The canonical form of ``doc``: ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    Keys sorted, two-space indent, one element per line, ASCII escapes,
    floats as Python's shortest ``repr`` and non-finite ones as ``NaN``,
    ``Infinity`` and ``-Infinity``.  Keys must be strings, and any value
    ``json.dumps`` refuses, a series object among them, is a TypeError.
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
