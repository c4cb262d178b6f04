"""File formats: series literals, problem documents, run reports.

Everything is JSON with a canonical form: terms sorted graded
lexicographically, complex numbers as [re, im] pairs, keys sorted.  The
canonical bytes of a document are stable, so digests and byte-identical
reruns are well defined.
"""

from __future__ import annotations

import json

try:  # CPython's own SHA-256; hashlib would load OpenSSL's libcrypto, several MB resident
    from _sha2 import sha256 as _sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .divisors import FieldSpectrum, GermSpectrum
from .errors import UsageError
from .linearize import Germ, VectorField
from .series import ScalarSeries, VectorSeries


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


def series_to_doc(series) -> dict:
    """Canonical document for a scalar or vector series."""
    if isinstance(series, ScalarSeries):
        terms = [
            {"alpha": list(a), "value": _pair(c)} for a, c in series.items()
        ]
        return {"n": series.n, "D": series.trunc, "kind": "scalar", "terms": terms}
    terms = [
        {"alpha": list(a), "value": [_pair(c) for c in vec]}
        for a, vec in series.coeff_items()
    ]
    return {"n": series.n, "D": series.trunc, "kind": "vector", "terms": terms}


def series_from_doc(doc: dict):
    try:
        n = _integer(doc["n"], "n")
        D = _integer(doc["D"], "D")
        kind = doc.get("kind", "vector")
        if n < 1 or D < 0:
            raise UsageError(f"a series needs n >= 1 and D >= 0, got n={n}, D={D}")
        coeffs = {}
        for t in doc.get("terms", []):
            alpha = _alpha(t, n, D)
            value = t["value"]
            if kind == "scalar":
                coeffs[alpha] = _cplx(value)
                continue
            if not isinstance(value, list) or len(value) != n:
                raise UsageError(f"vector term at {alpha} needs {n} components")
            coeffs[alpha] = tuple(_cplx(v) for v in value)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed series document: {exc}") from exc
    if kind == "scalar":
        return ScalarSeries(n, D, coeffs)
    return VectorSeries.from_coeffs(n, D, coeffs)


def _alpha(term: dict, n: int, D: int):
    alpha = tuple(_integer(a, "an exponent") for a in term.get("alpha", ()))
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise UsageError(f"bad index {alpha} for n={n}")
    if sum(alpha) > D:
        raise UsageError(f"term degree {sum(alpha)} exceeds D={D}")
    return alpha


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


def problem_to_doc(problem, options: dict | None = None) -> dict:
    if isinstance(problem, Germ):
        spec = problem.spectrum
        if spec.rotation is not None:
            spectrum = {"rotation": list(spec.rotation)}
        else:
            spectrum = {"lambda": [_pair(x) for x in spec.lam]}
        kind = "germ"
    elif isinstance(problem, VectorField):
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


def real_numbers(values, what: str) -> tuple:
    """A nonempty JSON list of real numbers as floats; anything else is a usage error."""
    if not isinstance(values, list) or not values or not all(_is_number(w) for w in values):
        raise UsageError(f"{what} must be a nonempty list of real numbers, got {values!r}")
    return tuple(float(w) for w in values)


def spectrum_from_doc(doc, kind: str, n: int | None = None):
    """The spectrum of a ``kind`` ("germ" or "field") problem, from its JSON object.

    A germ's is ``rotation`` (real numbers) or ``lambda``, a field's is
    ``omega`` (numbers or ``[re, im]`` pairs).  Another type, a missing key,
    no entries, a length other than ``n`` (when given) or eigenvalues the
    spectrum refuses are usage errors.
    """
    try:
        if kind == "field":
            spec = FieldSpectrum(tuple(_cplx(x) for x in doc["omega"]))
        elif "rotation" in doc:
            spec = GermSpectrum.from_rotation(real_numbers(doc["rotation"], "rotation numbers"))
        else:
            spec = GermSpectrum(tuple(_cplx(x) for x in doc["lambda"]))
    except (KeyError, TypeError, ValueError) as exc:
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
    if not isinstance(f, VectorSeries) or f.n != n:
        raise UsageError("problem series must be an n-component vector series")
    spec = spectrum_from_doc(spectrum_doc, kind, n)
    try:  # the problem checks that f has valuation >= 2
        return (Germ if kind == "germ" else VectorField)(spec, f)
    except ValueError as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical bytes and digests
# ---------------------------------------------------------------------------


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def digest(doc: dict) -> str:
    """The SHA-256 of the canonical bytes, in hex."""
    return _sha256(canonical_bytes(doc)).hexdigest()


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def run_report(problem_doc: dict, method: str, lin, extras: dict | None = None) -> dict:
    """Canonical run report: input digest, solver metadata, residuals, solution."""
    report = {
        "input_digest": digest(problem_doc),
        "method": method,
        "degree": lin.degree,
        "residual": {"znorm": lin.residual_znorm, "max_abs": lin.residual_max},
        "conforming": lin.conforming,
        "clipped": [
            {"alpha": list(a), "axis": j, "modulus": m} for a, j, m in lin.clipped
        ],
        "h": series_to_doc(lin.h),
    }
    if extras:
        report.update(extras)
    return report
