"""File formats: series literals, problem documents, run reports.

Everything is JSON with a canonical form: terms sorted graded
lexicographically, complex numbers as [re, im] pairs, keys sorted.  The
canonical bytes of a document are stable, so digests and byte-identical
reruns are well defined.  :func:`_series_doc` is the one writer of the
series layout: a problem document holds its series as that plain data,
listed by :func:`series_to_doc`, which :mod:`treelin.canonical` writes like
any other.  A run report holds h's terms as its iterator, which
:func:`write` writes term by term.
"""

from __future__ import annotations

import cmath
import json

try:  # CPython's own SHA-256; hashlib would load OpenSSL's libcrypto, several MB resident
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from . import divisors, linearize, series  # deferred, run on first use
# digest calls canonical_bytes through this binding, which the benchmark tracer
# wraps; cli writes a run report through documents.write
from .canonical import canonical_bytes, write
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
    """The document of a scalar or vector series: plain data, its nonzero terms in graded order."""
    doc = _series_doc(s)
    doc["terms"] = list(doc["terms"])
    return doc


def _series_doc(s) -> dict:
    """The document of a series with its terms as an iterator, made as it is read."""
    if isinstance(s, series.ScalarSeries):
        kind, value = "scalar", _pair
    else:
        kind, value = "vector", lambda vec: [_pair(c) for c in vec]
    terms = ({"alpha": list(a), "value": value(c)} for a, c in s.iter_terms())
    return {"n": s.n, "D": s.trunc, "kind": kind, "terms": terms}


def series_from_doc(doc: dict, degree: int | None = None, kind: str | None = None,
                    valuation: int = 0):
    """The series of a series document through ``degree`` <= D (D when None); every term is checked.

    Its ``kind`` is "scalar" or "vector" (the default), and ``kind`` when that is given.
    A nonzero vector term of degree below ``valuation`` is refused, whatever ``degree`` is.
    """
    try:
        n = _integer(doc["n"], "n")
        D = _integer(doc["D"], "D")
        found = doc.get("kind", "vector")
        if found not in ("scalar", "vector"):
            raise UsageError(f"a series kind is \"scalar\" or \"vector\", got {found!r}")
        if kind not in (None, found):
            raise UsageError(f"expected a {kind} series, got a {found} series")
        if n < 1 or D < 0:
            raise UsageError(f"a series needs n >= 1 and D >= 0, got n={n}, D={D}")
        terms = doc.get("terms")
        if not isinstance(terms, list):
            raise UsageError(f"a series document needs a list of terms, got {terms!r}")
        coeffs = {}
        for t in terms:
            alpha = index(t.get("alpha", []), n)
            if sum(alpha) > D:
                raise UsageError(f"term degree {sum(alpha)} exceeds D={D}")
            value = t["value"]
            if found == "scalar":
                coeffs[alpha] = _cplx(value)
                continue
            if not isinstance(value, list) or len(value) != n:
                raise UsageError(f"vector term at {alpha} needs {n} components")
            coeffs[alpha] = tuple(_cplx(v) for v in value)
            if sum(alpha) < valuation and any(coeffs[alpha]):
                raise UsageError(f"the nonlinear part must have valuation >= {valuation}, "
                                 f"got a nonzero term at {alpha}")
        build = series.ScalarSeries if found == "scalar" else series.VectorSeries.from_coeffs
        # a truncation too high to hold is refused here too, with numpy's reason
        return build(n, D if degree is None else degree, coeffs)
    except (AttributeError, KeyError, MemoryError, OverflowError, TypeError, ValueError) as exc:
        # a MemoryError says nothing of itself, so it is named
        raise UsageError(f"malformed series document: {str(exc) or type(exc).__name__}") from exc


def index(value, n: int) -> tuple:
    """A JSON list of ``n`` non-negative integers as an index; anything else is a usage error."""
    if not isinstance(value, list):
        raise UsageError(f"an index is a list of {n} integers, got {value!r}")
    alpha = tuple(_integer(a, "an exponent") for a in value)
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise UsageError(f"bad index {alpha} for n={n}")
    return alpha


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


def problem_to_doc(problem, options: dict | None = None) -> dict:
    """The problem's document, ``f`` as its :func:`series_to_doc` document."""
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
        "series": series_to_doc(problem.f),
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


def problem_from_doc(doc: dict, kind: str | None = None, degree: int | None = None,
                     asked: str = "--degree"):
    """The germ or field problem of a problem document, with f read only through ``degree``.

    ``kind`` is the kind a command needs and ``degree`` the degree it solves or checks to, D
    when None; ``asked`` names that degree if it is above D.  h through degree d needs f only
    through degree d, but a nonzero term of f below degree 2 is refused at every degree.  The
    top-level ``n`` and ``D`` must be the series' own.
    """
    found = doc.get("kind") if isinstance(doc, dict) else None
    if found not in ("germ", "field"):
        raise UsageError(f"unknown problem kind {found!r}")
    if kind not in (None, found):
        raise UsageError(f"the input document is a {found} problem, not a {kind} problem")
    try:
        n = _integer(doc["n"], "n")
        D = _integer(doc["D"], "D")
        spectrum_doc = doc["spectrum"]
        series_doc = doc["series"]
        shape = (series_doc["n"], series_doc["D"])
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc
    if shape != (n, D):
        raise UsageError(f"the document has (n, D) = {(n, D)} but its series has {shape!r}")
    degree = D if degree is None else degree
    if degree > D:  # f is known only through its truncation
        raise UsageError(f"{asked} {degree} is above the document's truncation {D}")
    f = series_from_doc(series_doc, degree, "vector", valuation=2)
    spec = spectrum_from_doc(spectrum_doc, found, n)
    return (linearize.Germ if found == "germ" else linearize.VectorField)(spec, f)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


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


def load_solution(path: str):
    """The solution h at ``path``: a vector series document, or the ``h`` of a run report."""
    doc = load_json(path)
    doc = doc.get("h", doc) if isinstance(doc, dict) else doc  # a run report holds h
    if isinstance(doc, dict) and doc.get("kind") in ("germ", "field"):
        raise UsageError(f"expected a series document, got a {doc['kind']} problem document")
    return series_from_doc(doc, kind="vector")


def run_report(problem_doc: dict, method: str, lin, extras: dict | None = None) -> dict:
    """Canonical run report: input digest, solver metadata, residual record, the document of ``h``.

    The terms of ``h`` are an iterator, read from h's array as :func:`write`
    writes them, so the report can be written once; list them first for
    :func:`canonical_bytes`.
    """
    report = {
        "input_digest": digest(problem_doc),
        "method": method,
        "degree": lin.degree,
        "residual": residual_doc(lin.residual),
        "conforming": lin.conforming,
        "clipped": [
            {"alpha": list(a), "axis": j, "modulus": m} for a, j, m in lin.clipped
        ],
        "h": _series_doc(lin.h),
    }
    if extras:
        report.update(extras)
    return report
