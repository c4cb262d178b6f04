"""The ``trees``, ``bruno``, ``omega``, ``diagnose`` and ``verify`` commands.

:mod:`treelin.cli` parses every command and runs ``linearize`` itself,
and ``fixture`` runs in :mod:`treelin.fixture`; it calls into this module
only for the five commands here, so a ``linearize`` process never compiles
them.  Each command runs the modules it needs on first use: ``diagnose
family`` runs neither ``documents`` nor ``trees``, and ``diagnose growth``
and ``class`` do not run ``bruno``.
"""

from __future__ import annotations

import math

from . import bruno, diagnostics, documents, linearize, series, trees
from .errors import ConjugacyDefect, RationalDetected, UsageError
from .indices import degree, iter_indices
from .output import emit


# ---------------------------------------------------------------------------
# subcommand: trees
# ---------------------------------------------------------------------------


def _support_from_file(path: str, n: int):
    doc = documents.load_json(path)
    if isinstance(doc, list):
        return frozenset(documents.index(a, n) for a in doc)
    if isinstance(doc, dict) and "terms" in doc:
        s = documents.series_from_doc(doc)
        if s.n != n:
            raise UsageError(f"the support series has n={s.n}, --alpha has {n} axes")
        sup = s.support() if isinstance(s, series.VectorSeries) else s.support
        return frozenset(a for a in sup if degree(a) >= 2)
    raise UsageError("support file must be a JSON list of indices or a series document")


def cmd_trees(args) -> int:
    if not args.labeled:
        lines = [",".join(str(x) for x in m) for m in trees.enumerate_forest(args.order)]
        emit("\n".join(lines) + "\n", args.output)
        return 0
    if args.alpha is None:
        raise UsageError("--labeled needs --alpha")
    try:
        alpha = tuple(int(x) for x in args.alpha.split(","))
    except ValueError:
        raise UsageError(f"--alpha needs comma-separated integers, got {args.alpha!r}") from None
    if min(alpha) < 0:
        raise UsageError(f"--alpha needs integers >= 0, got {args.alpha!r}")
    if args.axis > len(alpha):
        raise UsageError(f"--axis {args.axis} exceeds the {len(alpha)} axes of --alpha")
    support = (
        _support_from_file(args.support, len(alpha))
        if args.support
        else frozenset(a for a in iter_indices(len(alpha), sum(alpha), 2))
    )
    labeled = trees.enumerate_labeled(args.order, alpha, args.axis - 1, support)
    lines = []
    for t in labeled:
        m = ",".join(str(x) for x in t.m)
        labels = ";".join(",".join(str(x) for x in a) for a in t.node_labels)
        axes = ",".join(str(ax + 1) for ax in t.line_axes)
        lines.append(f"m={m} labels={labels} lines={axes}")
    emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: bruno
# ---------------------------------------------------------------------------


def cmd_bruno(args) -> int:
    from fractions import Fraction  # loads decimal too; only this command parses p/q

    bad = UsageError(f"--omega needs a real number or a fraction p/q, got {args.omega!r}")
    try:
        omega = Fraction(args.omega) if "/" in args.omega else float(args.omega)
    except (ValueError, ZeroDivisionError):
        raise bad from None
    if isinstance(omega, float) and not math.isfinite(omega):
        raise bad
    flagged = None
    try:
        cf = bruno.continued_fraction(omega, args.terms)
    except RationalDetected as exc:
        cf = exc.partial
        flagged = "rational input detected; expansion terminated early"
    rows = ["k,a_k,q_k,term,partial_sum"]
    sums = bruno.bruno_series_1d(cf, len(cf.q) - 2) if len(cf.q) >= 2 else []
    for k in range(min(args.terms, len(cf.q))):
        a = "" if k == 0 else str(cf.quotients[k - 1])
        term = "" if k == 0 else repr(math.log(cf.q[k]) / cf.q[k - 1])
        partial = "" if k == 0 else repr(sums[k - 1])
        rows.append(f"{k},{a},{cf.q[k]},{term},{partial}")
    if sums:
        rows.append(f"# bruno_proxy={sums[-1]!r} terms={len(sums)}")
    if flagged:
        rows.append(f"# flag={flagged}")
    emit("\n".join(rows) + "\n", args.output)
    if flagged:
        raise RationalDetected(cf, flagged)
    return 0


# ---------------------------------------------------------------------------
# subcommand: omega
# ---------------------------------------------------------------------------


def cmd_omega(args) -> int:
    first = 1 if args.variant == "frac" else 2  # the first p the variant defines
    if args.p_max < first:
        raise UsageError(f"--p-max must be >= {first} for the {args.variant} variant, "
                         f"got {args.p_max}")
    doc = documents.load_json(args.spectrum)
    if not isinstance(doc, dict):
        raise UsageError("a spectrum document is a JSON object")
    rows = ["p,value"]
    try:
        if args.variant == "tilde":
            spec = documents.spectrum_from_doc(doc, "germ")
            for p in range(first, args.p_max + 1):
                rows.append(f"{p},{bruno.omega_tilde(spec, p, args.mode)!r}")
        elif args.variant == "frac":
            omega = documents.real_numbers(doc.get("rotation", doc.get("omega")),
                                           "the frac variant's rotation or omega")
            for p in range(first, args.p_max + 1):
                rows.append(f"{p},{bruno.omega_frac(omega, p)!r}")
        else:
            omega = documents.spectrum_from_doc(doc, "field").omega
            for p in range(first, args.p_max + 1):
                rows.append(f"{p},{bruno.omega_hat(omega, p)!r}")
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed spectrum document: {exc}") from exc
    emit("\n".join(rows) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: diagnose
# ---------------------------------------------------------------------------


def _class_spec(text: str) -> diagnostics.ClassSpec:
    kind, _, param = text.partition(":")
    try:
        if kind == "gevrey":
            return diagnostics.ClassSpec.gevrey(float(param))
        if kind == "geometric":
            return diagnostics.ClassSpec.geometric(float(param))
        if kind == "table":
            values = documents.real_numbers(documents.load_json(param), "a class table")
            return diagnostics.ClassSpec.from_table(values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad class spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown class spec {text!r} (use gevrey:s, geometric:C, table:file)")


def _require_fit(radius: float, source: str) -> None:
    """Refuse a growth fit that had too few degrees: growth_report leaves it NaN."""
    if math.isnan(radius):
        raise UsageError(f"the growth fit needs h nonzero in at least "
                         f"{diagnostics.MIN_FIT_DEGREES} degrees; {source} gives fewer")


def cmd_diagnose(args) -> int:
    if args.emit_csv and args.output:
        raise UsageError("diagnose writes one table: give --emit-csv or --output, not both")
    if args.input is None and args.what in ("growth", "class", "domain"):
        raise UsageError(f"{args.what} diagnostics need --input")
    rows: list[str] = []
    if args.what == "growth":
        h = documents.load_solution(args.input)
        rep = diagnostics.growth_report(h)
        _require_fit(rep.radius, args.input)
        rows.append("degree,max_abs")
        rows.extend(f"{d},{m!r}" for d, m in rep.per_degree)
        rows.append(f"# radius={rep.radius!r} slope={rep.slope!r} "
                    f"jackknife_spread={rep.jackknife_spread!r}")
        if args.majorant_r is not None:
            sums = diagnostics.majorant_partial_sums(h, args.majorant_r)
            rows.append("degree,majorant_partial_sum")
            rows.extend(f"{d},{s!r}" for d, s in sums)
    elif args.what == "class":
        h = documents.load_solution(args.input)
        spec = _class_spec(args.class_m)
        try:
            fit = diagnostics.class_membership(h, spec)
        except ValueError as exc:  # a table shorter than h's top nonzero degree
            raise UsageError(f"--class-m {args.class_m}: {exc}") from exc
        rows.append("accepted,A,B,max_violation,points")
        rows.append(f"{fit.accepted},{fit.A!r},{fit.B!r},{fit.max_violation!r},{fit.points}")
    elif args.what == "condition":
        if args.omega is None:
            raise UsageError("condition diagnostics need --omega")
        P = trees.ScaleSequence.pow2()
        spec_m = _class_spec(args.class_m)
        spec_n = _class_spec(args.class_n or args.class_m)
        try:
            rep = diagnostics.condition_sequence(
                diagnostics.germ_omega_of_p(args.omega), P, spec_m, spec_n, args.dmax
            )
        except ValueError as exc:  # the classes are out of order
            raise UsageError(str(exc)) from exc
        rows.append("degree,value")
        rows.extend(f"{d},{v!r}" for d, v in rep.values)
        rows.append(f"# max_value={rep.max_value!r}")
    elif args.what == "family":
        if args.omega is None:
            raise UsageError("family diagnostics need --omega")
        degree = 40 if args.degree is None else args.degree  # domain's is the truncation
        rep = diagnostics.germ_family_radius(args.k, args.omega, degree)
        _require_fit(rep.radius, f"--degree {degree}")
        rows.append("k,omega,degree,radius,log_radius,jackknife_spread,"
                    "bruno_value,reference_log_radius,empirical_gap")
        rows.append(
            f"{rep.k},{rep.omega!r},{rep.degree},{rep.radius!r},{rep.log_radius!r},"
            f"{rep.jackknife_spread!r},{rep.bruno_value!r},"
            f"{rep.reference_log_radius!r},{rep.empirical_gap!r}"
        )
    else:  # domain
        problem = documents.problem_from_doc(documents.load_json(args.input), "field", args.degree)
        try:  # refused here, before the solve
            diagnostics.family_omega(problem.spectrum)
        except ValueError as exc:
            raise UsageError(f"domain diagnostics need a normalized planar field: {exc}") from exc
        # f is read through --degree, or the document's truncation; the parser
        # refuses a radius that is not positive, so only None falls back
        rep = diagnostics.vf_domain_estimate(problem, problem.f.trunc, args.majorant_r or 0.5)
        _require_fit(rep.rho, f"--degree {rep.degree}")
        rows.append("omega,degree,rho,d_estimate,log_d,bruno_value,gap,divergence_flag")
        rows.append(
            f"{rep.omega!r},{rep.degree},{rep.rho!r},{rep.d_estimate!r},"
            f"{rep.log_d!r},{rep.bruno_value!r},{rep.gap!r},{rep.divergence_flag}"
        )
    emit("\n".join(rows) + "\n", args.emit_csv or args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    h = documents.load_solution(args.solution)
    problem = documents.problem_from_doc(documents.load_json(args.input), degree=h.trunc,
                                         asked="--solution truncation")
    if h.n != problem.f.n:
        raise UsageError(f"the solution has n = {h.n} but the problem has n = {problem.f.n}")
    rep = linearize.verify_conjugacy(problem, h)
    rows = [
        "max_abs,max_rel,degree",
        f"{rep.max_abs!r},{rep.max_rel!r},{rep.degree}",
    ]
    emit("\n".join(rows) + "\n", args.output)
    if not rep.max_rel <= args.tol:  # a defect that overflowed to inf or NaN fails too
        raise ConjugacyDefect(
            f"conjugacy defect {rep.max_rel:.3e} exceeds tolerance {args.tol:.1e}"
        )
    return 0
