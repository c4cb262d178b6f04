"""The canonical writer of JSON documents: plain data only, so it loads no numpy.

One writer, two entry points: :func:`write` writes a document to a text
stream in pieces, and :func:`canonical_bytes` gives its bytes whole, for
digests and small documents.  :func:`treelin.documents.series_to_doc` lays
a series out as plain data first.
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
    ``json.dumps`` refuses, a series object or an iterator among them, is a
    TypeError.
    """
    return (_text(doc, 0) + "\n").encode("ascii")


def write(doc, out) -> None:
    """Write the canonical form of ``doc``, the text of :func:`canonical_bytes`, to the text stream ``out``.

    It goes out in pieces: an object entry by entry, and a list given as an
    iterator item by item, each item as one :func:`_text`.  So such a list
    is held neither whole nor as text, and a run report's terms of h can be
    made as they are written.  An iterator is taken as the document or as
    an entry's value; within a list or an iterator's item it is a
    TypeError, as everywhere in :func:`canonical_bytes`.
    """
    _write(doc, 0, out.write)
    out.write("\n")


def _write(value, level: int, put):
    """``value`` in canonical form, opened at indentation ``level``, through ``put``."""
    is_object = isinstance(value, dict)
    if not (is_object or hasattr(value, "__next__")):  # an iterator
        put(_text(value, level))
        return
    brackets = "{}" if is_object else "[]"
    inner = "\n" + _INDENT * (level + 1)
    separator = brackets[0] + inner
    if is_object:
        for key in _keys(value):
            put(f"{separator}{_string(key)}: ")
            _write(value[key], level + 1, put)
            separator = "," + inner
    else:
        for item in value:
            put(separator + _text(item, level + 1))
            separator = "," + inner
    put(f"\n{_INDENT * level}{brackets[1]}" if separator[0] == "," else brackets)


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
        return _listing("{}", [f"{_string(key)}: {_text(value[key], level + 1)}"
                               for key in _keys(value)], level)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _keys(obj: dict) -> list:
    """The keys of ``obj`` in canonical order; a key that is not a string is a TypeError."""
    if not all(isinstance(key, str) for key in obj):
        raise TypeError(f"keys must be str, got {list(obj)!r}")
    return sorted(obj)


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _listing(brackets: str, entries: list, level: int) -> str:
    """A list or object (``brackets`` "[]" or "{}") of written ``entries``, opened at ``level``."""
    if not entries:
        return brackets
    inner = "\n" + _INDENT * (level + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(entries)}\n{_INDENT * level}{brackets[1]}"
