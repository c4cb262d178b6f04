"""Output checks, run in the benchmark process after the timed loop.

Every op's output is checked, outside the timed region:

* linearize ops: the report's input digest
  matches the fixture, and ``verify_conjugacy`` on the returned h gives a
  relative residual <= TOL.  Tree results must also match an untimed
  recursive reference, and recursive and fixed-point results on the same
  input must agree with each other.
* diagnose family and diagnose domain print no h.  The benchmark solves
  the same problem recursively, checks that h conjugates (and, for the
  family, that h_d = 0 unless d = 1 mod k), and requires the printed radius
  to equal the radius fitted to that h.

A failed check marks the op as failed and wrong.  A domain error (exit 2)
marks it failed only; any other non-zero exit marks it failed and wrong.
"""

from __future__ import annotations

import csv
import json
import sys

TOL = 1e-10
CORRUPTION = 1.0 + 1e-6


class Checker:
    def __init__(self, root, runner, fault):
        sys.path.insert(0, str(root / "src"))
        from treelin import diagnostics, divisors, documents, linearize, series

        self.diagnostics = diagnostics
        self.divisors = divisors
        self.documents = documents
        self.linearize = linearize
        self.series = series
        self.runner = runner
        self.corrupt = fault == "corrupt-h"
        self._docs: dict = {}
        self._refs: dict = {}

    # -- cached inputs and references -------------------------------------
    def _problem(self, fixture: int):
        if fixture not in self._docs:
            doc = self.documents.load_json(str(self.runner.fixture_path(fixture)))
            self._docs[fixture] = (doc, self.documents.problem_from_doc(doc))
        return self._docs[fixture]

    def _solve_reference(self, key, problem, D: int):
        """Recursive h for ``problem``, verified once, with its growth radius."""
        if key not in self._refs:
            h = self.linearize.solve(problem, D, "recursive").h
            rel = self.linearize.verify_conjugacy(problem, h).max_rel
            if rel > TOL:
                raise AssertionError(f"reference residual {rel:.3e}")
            self._refs[key] = (h, self.diagnostics.growth_report(h).radius)
        return self._refs[key]

    def _family_reference(self, k: int, omega: float, D: int):
        # the family z -> lambda z (1 - z^k / k), lambda = exp(2 pi i omega)
        spectrum = self.divisors.GermSpectrum.from_rotation((omega,))
        lam = spectrum.lam[0]
        f = self.series.VectorSeries.from_coeffs(1, D, {(k + 1,): (-lam / k,)})
        germ = self.linearize.Germ(spectrum, f)
        h, radius = self._solve_reference(("family", k, omega, D), germ, D)
        for (d,), c in h.components[0].items():
            if c != 0 and (d - 1) % k:
                raise AssertionError(f"h has a term at degree {d}, not 1 mod {k}")
        return radius

    # -- per-op checks -----------------------------------------------------
    def _check_h(self, rec, problem, h):
        op = rec["op"]
        if self.corrupt:
            h = h.scale(CORRUPTION)
        rel = self.linearize.verify_conjugacy(problem, h).max_rel
        if rel > TOL:
            return f"relative residual {rel:.3e} > {TOL:g}"
        if op.method == "tree":
            ref, _ = self._solve_reference(op.fixture, problem, op.D)
            diff = (h - ref).max_abs() / max(1.0, ref.max_abs())
            if diff > TOL:
                return f"tree h differs from the recursive reference by {diff:.3e}"
        rec["h"] = h
        return None

    def _check_radius(self, rec, column: str, expected: float):
        with open(rec["output"], encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        value = float(row[column])
        if self.corrupt:
            value *= CORRUPTION
        if abs(value - expected) > TOL * abs(expected):
            return f"{column} {value!r} differs from the reference {expected!r}"
        return None

    def _check(self, rec):
        op = rec["op"]
        if op.kind == "linearize":
            doc, problem = self._problem(op.fixture)
            with open(rec["output"], encoding="utf-8") as fh:
                report = json.load(fh)
            if report["input_digest"] != self.documents.digest(doc):
                return "report input digest does not match the fixture"
            return self._check_h(rec, problem, self.documents.series_from_doc(report["h"]))
        if op.kind == "family":
            return self._check_radius(rec, "radius", self._family_reference(op.k, op.omega, op.D))
        _, problem = self._problem(op.fixture)
        _, rho = self._solve_reference(op.fixture, problem, op.D)
        return self._check_radius(rec, "rho", rho)

    def check_all(self, records: list):
        """Set ``ok`` and ``wrong`` on every record (and ``error`` on failures)."""
        for rec in records:
            rec["ok"] = rec["wrong"] = False
            if rec["rc"] == 0:
                try:
                    problem = self._check(rec)
                except (AssertionError, KeyError, ValueError, StopIteration, OSError) as exc:
                    problem = f"check failed: {type(exc).__name__}: {exc}"
                rec["ok"] = problem is None
                rec["wrong"] = problem is not None
                rec["error"] = problem
            elif rec["rc"] != 2:
                rec["wrong"] = True
        # recursive and fixed-point results on one input must agree
        by_input: dict = {}
        for rec in records:
            if rec["ok"] and rec["op"].kind == "linearize":
                by_input.setdefault(rec["op"].fixture, []).append(rec)
        for group in by_input.values():
            base = group[0]["h"]
            scale = max(1.0, base.max_abs())
            for rec in group[1:]:
                diff = (rec["h"] - base).max_abs() / scale
                if diff > TOL:
                    for r in group:
                        r["ok"], r["wrong"] = False, True
                        r["error"] = f"methods disagree on this input by {diff:.3e}"
        for rec in records:
            rec.pop("h", None)
