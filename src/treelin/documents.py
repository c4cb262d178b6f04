"""File formats: series literals, problem documents, run reports.

Everything is JSON with a canonical form: terms sorted graded
lexicographically, complex numbers as [re, im] pairs, keys sorted.  The
canonical bytes of a document are stable, so digests and byte-identical
reruns are well defined.  :func:`canonical_bytes` writes them itself, and
writes a series in a document straight from its coefficient array.
"""

from __future__ import annotations

import cmath
import json
import math
from json.encoder import encode_basestring_ascii as _string

try:  # CPython's own SHA-256; hashlib would load OpenSSL's libcrypto, several MB resident
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

# deferred modules, run on first use, so a document of plain data, such as
# the fixture's, is written without them and without numpy
from . import divisors, linearize, series
from .errors import UsageError


def _is_number(value, kinds=(int, float)) -> bool:
    """Whether ``value`` is a JSON number of ``kinds``; true, false and strings are not."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if not _is_number(value, int):
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _cplx(value) -> complex:
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(x) for x in value)):
        return complex(value[0], value[1])
    raise UsageError(f"expected a number or [re, im] pair, got {value!r}")


def _pair(z: complex):
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# series literals
# ---------------------------------------------------------------------------


def series_to_doc(s) -> dict:
    """Canonical document for a scalar or vector series."""
    if isinstance(s, series.ScalarSeries):
        terms = [
            {"alpha": list(a), "value": _pair(c)} for a, c in s.items()
        ]
        return {"n": s.n, "D": s.trunc, "kind": "scalar", "terms": terms}
    terms = [
        {"alpha": list(a), "value": [_pair(c) for c in vec]}
        for a, vec in s.coeff_items()
    ]
    return {"n": s.n, "D": s.trunc, "kind": "vector", "terms": terms}


def series_from_doc(doc: dict):
    """The series of a series document; ``kind`` "scalar" or "vector" (the default), ``terms`` a list."""
    try:
        n = _integer(doc["n"], "n")
        D = _integer(doc["D"], "D")
        kind = doc.get("kind", "vector")
        if kind not in ("scalar", "vector"):
            raise UsageError(f"a series kind is \"scalar\" or \"vector\", got {kind!r}")
        if n < 1 or D < 0:
            raise UsageError(f"a series needs n >= 1 and D >= 0, got n={n}, D={D}")
        terms = doc.get("terms")
        if not isinstance(terms, list):
            raise UsageError(f"a series document needs a list of terms, got {terms!r}")
        coeffs = {}
        for t in terms:
            alpha = _alpha(t, n, D)
            value = t["value"]
            if kind == "scalar":
                coeffs[alpha] = _cplx(value)
                continue
            if not isinstance(value, list) or len(value) != n:
                raise UsageError(f"vector term at {alpha} needs {n} components")
            coeffs[alpha] = tuple(_cplx(v) for v in value)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed series document: {exc}") from exc
    if kind == "scalar":
        return series.ScalarSeries(n, D, coeffs)
    return series.VectorSeries.from_coeffs(n, D, coeffs)


def index(value, n: int) -> tuple:
    """A JSON list of ``n`` non-negative integers as an index; anything else is a usage error."""
    if not isinstance(value, list):
        raise UsageError(f"an index is a list of {n} integers, got {value!r}")
    alpha = tuple(_integer(a, "an exponent") for a in value)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise UsageError(f"bad index {alpha} for n={n}")
    return alpha


def _alpha(term: dict, n: int, D: int):
    alpha = index(term.get("alpha", []), n)
    if sum(alpha) > D:
        raise UsageError(f"term degree {sum(alpha)} exceeds D={D}")
    return alpha


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


def problem_to_doc(problem, options: dict | None = None) -> dict:
    """The problem's document, holding ``f`` itself; :func:`canonical_bytes` writes it."""
    if isinstance(problem, linearize.Germ):
        spec = problem.spectrum
        if spec.rotation is not None:
            spectrum = {"rotation": list(spec.rotation)}
        else:
            spectrum = {"lambda": [_pair(x) for x in spec.lam]}
        kind = "germ"
    elif isinstance(problem, linearize.VectorField):
        spectrum = {"omega": [_pair(x) for x in problem.spectrum.omega]}
        kind = "field"
    else:
        raise UsageError(f"cannot serialize {type(problem).__name__}")
    doc = {
        "kind": kind,
        "n": problem.f.n,
        "D": problem.f.trunc,
        "spectrum": spectrum,
        "series": problem.f,
    }
    if options:
        doc["options"] = options
    return doc


def _finite(values, what: str, number) -> tuple:
    """``values`` converted by ``number``; an infinite or NaN result is a usage error.

    An integer beyond the float range raises OverflowError.
    """
    numbers = tuple(number(x) for x in values)
    if not all(map(cmath.isfinite, numbers)):
        raise UsageError(f"{what} must be finite, got {values!r}")
    return numbers


def real_numbers(values, what: str) -> tuple:
    """A nonempty JSON list of finite real numbers as floats; anything else is a usage error."""
    if not isinstance(values, list) or not values or not all(_is_number(w) for w in values):
        raise UsageError(f"{what} must be a nonempty list of real numbers, got {values!r}")
    return _finite(values, what, float)


def spectrum_from_doc(doc, kind: str, n: int | None = None):
    """The spectrum of a ``kind`` ("germ" or "field") problem, from its JSON object.

    A germ's is ``rotation`` (real numbers) or ``lambda``, a field's is
    ``omega`` (numbers or ``[re, im]`` pairs).  Another type, a missing key,
    no entries, an infinite or NaN entry, a length other than ``n`` (when
    given) or eigenvalues the spectrum refuses are usage errors.
    """
    try:
        if kind == "field":
            spec = divisors.FieldSpectrum(_finite(doc["omega"], "field eigenvalues", _cplx))
        elif "rotation" in doc:
            spec = divisors.GermSpectrum.from_rotation(real_numbers(doc["rotation"], "rotation numbers"))
        else:
            spec = divisors.GermSpectrum(_finite(doc["lambda"], "germ eigenvalues", _cplx))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed {kind} spectrum {doc!r}: {exc!r}") from exc
    if not spec.n or n not in (None, spec.n):
        raise UsageError(f"the {kind} spectrum has {spec.n} entries, expected {n or 'at least 1'}")
    return spec


def problem_from_doc(doc: dict):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("germ", "field"):
        raise UsageError(f"unknown problem kind {kind!r}")
    try:
        n = _integer(doc["n"], "n")
        spectrum_doc = doc["spectrum"]
        series_doc = doc["series"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc
    f = series_from_doc(series_doc)
    if not isinstance(f, series.VectorSeries) or f.n != n:
        raise UsageError("problem series must be an n-component vector series")
    spec = spectrum_from_doc(spectrum_doc, kind, n)
    try:  # the problem checks that f has valuation >= 2
        return (linearize.Germ if kind == "germ" else linearize.VectorField)(spec, f)
    except ValueError as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical bytes and digests
# ---------------------------------------------------------------------------


_INDENT = "  "
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def canonical_bytes(doc) -> bytes:
    """The canonical form of ``doc``: ``json.dumps(doc, sort_keys=True, indent=2)`` and a newline.

    Keys sorted, two-space indent, one element per line, ASCII escapes,
    floats as Python's shortest ``repr`` and non-finite ones as ``NaN``,
    ``Infinity`` and ``-Infinity``.  A :class:`~treelin.series.ScalarSeries`
    or :class:`~treelin.series.VectorSeries` is written as its
    :func:`series_to_doc` document.  Keys must be strings.
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


def digest(doc: dict) -> str:
    """The SHA-256 of the canonical bytes, in hex."""
    return _sha256(canonical_bytes(doc)).hexdigest()


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def residual_doc(rep) -> dict:
    """A :class:`linearize.ConjugacyReport` as a report's residual record."""
    return {"max_abs": rep.max_abs, "max_rel": rep.max_rel}


def run_report(problem_doc: dict, method: str, lin, extras: dict | None = None) -> dict:
    """Canonical run report: input digest, solver metadata, residual record, solution ``h`` itself."""
    report = {
        "input_digest": digest(problem_doc),
        "method": method,
        "degree": lin.degree,
        "residual": residual_doc(lin.residual),
        "conforming": lin.conforming,
        "clipped": [
            {"alpha": list(a), "axis": j, "modulus": m} for a, j, m in lin.clipped
        ],
        "h": lin.h,
    }
    if extras:
        report.update(extras)
    return report
