"""The canonical writer of JSON documents: plain data only, so it loads no numpy.

One layout routine, two entry points: :func:`write` writes a document to a
text stream in pieces, and :func:`canonical_bytes` gives its bytes whole,
for digests and small documents.  :func:`treelin.documents.series_to_doc`
lays a series out as plain data first.
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
    pieces = []
    _write(doc, 0, pieces.append, False)
    pieces.append("\n")
    return "".join(pieces).encode("ascii")


def write(doc, out) -> None:
    """Write the canonical form of ``doc``, the text of :func:`canonical_bytes`, to the text stream ``out``.

    It goes out in pieces, and a list may be given as an iterator, written
    item by item.  So such a list is held neither whole nor as text, and a
    run report's terms of h can be made as they are written.  An iterator
    is taken as the document or as an entry's value; within a list or an
    iterator's item it is a TypeError, as everywhere in
    :func:`canonical_bytes`.
    """
    _write(doc, 0, out.write, True)
    out.write("\n")


def _write(value, level: int, put, iterators: bool):
    """``value`` in canonical form, opened at indentation ``level``, through ``put``.

    An iterator is taken as a list where ``iterators`` is true: in the
    document and in the values of its objects, not within a list.
    """
    # scalars in json.encoder's order, so subclasses of int and float
    # (numpy.float64 among them) are written as their base type
    if isinstance(value, str):
        return put(_string(value))
    if value is None:
        return put("null")
    if value is True:
        return put("true")
    if value is False:
        return put("false")
    if isinstance(value, int):
        return put(int.__repr__(value))
    if isinstance(value, float):
        text = float.__repr__(value)
        return put(_NON_FINITE.get(text, text))
    is_object = isinstance(value, dict)
    if not (is_object or isinstance(value, (list, tuple)) or iterators and hasattr(value, "__next__")):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    brackets = "{}" if is_object else "[]"
    inner = "\n" + _INDENT * (level + 1)
    separator = brackets[0] + inner
    for entry in _keys(value) if is_object else value:
        if is_object:
            put(f"{separator}{_string(entry)}: ")
            _write(value[entry], level + 1, put, iterators)
        else:
            put(separator)
            _write(entry, level + 1, put, False)
        separator = "," + inner
    put(f"\n{_INDENT * level}{brackets[1]}" if separator[0] == "," else brackets)


def _keys(obj: dict) -> list:
    """The keys of ``obj`` in canonical order; a key that is not a string is a TypeError."""
    if not all(isinstance(key, str) for key in obj):
        raise TypeError(f"keys must be str, got {list(obj)!r}")
    return sorted(obj)
