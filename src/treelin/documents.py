"""File formats: series literals, problem documents, run reports.

Everything is JSON with a canonical form: terms sorted graded
lexicographically, complex numbers as [re, im] pairs, keys sorted.  The
canonical bytes of a document are stable, so digests and byte-identical
reruns are well defined.
"""

from __future__ import annotations

import hashlib
import json

from .divisors import FieldSpectrum, GermSpectrum
from .errors import UsageError
from .linearize import Germ, VectorField
from .series import ScalarSeries, VectorSeries


def _cplx(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(isinstance(x, (int, float)) for x in value)):
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
        n = int(doc["n"])
        D = int(doc["D"])
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
    alpha = tuple(int(a) for a in term.get("alpha", ()))
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


def problem_from_doc(doc: dict):
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in ("germ", "field"):
        raise UsageError(f"unknown problem kind {kind!r}")
    try:
        n = int(doc["n"])
        spectrum_doc = doc["spectrum"]
        series_doc = doc["series"]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc
    f = series_from_doc(series_doc)
    if not isinstance(f, VectorSeries) or f.n != n:
        raise UsageError("problem series must be an n-component vector series")
    # the spectra and problems check their own invariants (nonzero, distinct
    # eigenvalues, valuation >= 2) and raise ValueError
    try:
        if kind == "germ":
            if "rotation" in spectrum_doc:
                rot = [float(w) for w in spectrum_doc["rotation"]]
                if len(rot) != n:
                    raise UsageError("rotation vector length mismatch")
                spec = GermSpectrum.from_rotation(rot)
            elif "lambda" in spectrum_doc:
                lam = [_cplx(x) for x in spectrum_doc["lambda"]]
                if len(lam) != n:
                    raise UsageError("eigenvalue count mismatch")
                spec = GermSpectrum(tuple(lam))
            else:
                raise UsageError("germ spectrum needs 'rotation' or 'lambda'")
            return Germ(spec, f)
        omega = spectrum_doc.get("omega")
        if omega is None or len(omega) != n:
            raise UsageError("field spectrum needs an 'omega' list of length n")
        return VectorField(FieldSpectrum(tuple(_cplx(x) for x in omega)), f)
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed problem document: {exc}") from exc


# ---------------------------------------------------------------------------
# canonical bytes and digests
# ---------------------------------------------------------------------------


def canonical_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def digest(doc: dict) -> str:
    return hashlib.sha256(canonical_bytes(doc)).hexdigest()


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
