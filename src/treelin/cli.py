"""Command-line front end.

Canonical artifacts (solution documents, CSV tables) go to stdout or the
requested output file and are byte-identical across reruns; volatile notes
such as timings go to stderr.  Exit codes: 0 success, 1 usage error,
2 domain error (resonance, rational input, family violation, coefficient overflow).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import diagnostics, divisors, documents, linearize, trees
from .errors import (
    CoefficientOverflow,
    DivisorBelowTolerance,
    FamilyViolation,
    NoContraction,
    RationalDetected,
    ResonantSpectrum,
    TreelinError,
    UsageError,
)
from .series import VectorSeries, degree, iter_indices

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0

_DOMAIN_ERRORS = (
    CoefficientOverflow,
    DivisorBelowTolerance,
    ResonantSpectrum,
    RationalDetected,
    NoContraction,
    FamilyViolation,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _note(message: str):
    print(message, file=sys.stderr)


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return integer


def _thread_count() -> int:
    raw = os.environ.get("TREELIN_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise UsageError(f"TREELIN_THREADS must be an integer, got {raw!r}")
    if count < 1:
        raise UsageError("TREELIN_THREADS must be >= 1")
    return count


# ---------------------------------------------------------------------------
# subcommand: linearize
# ---------------------------------------------------------------------------


def _cmd_linearize(args) -> int:
    _thread_count()  # summation orders are normative; results are thread-count independent
    doc = documents.load_json(args.input)
    problem = documents.problem_from_doc(doc)
    if (args.kind == "germ") != isinstance(problem, linearize.Germ):
        raise UsageError(f"input document is not a {args.kind} problem")
    methods = (
        ["recursive", "tree", "fixedpoint"] if args.method == "all" else [args.method]
    )
    mode = "clip" if args.clip else "raise"
    results = {}
    for method in methods:
        start = time.perf_counter()
        kw = {} if method == "fixedpoint" else {"on_small_divisor": mode}
        results[method] = linearize.solve(problem, args.degree, method, **kw)
        note = (f"{method}: {time.perf_counter() - start:.3f}s, "
                f"residual max {results[method].residual_max:.3e}")
        if method == "tree":
            plan = trees.tree_plan(problem, args.degree)
            note += (f", degrees 2..{args.degree}: summands {list(plan.summands)}, "
                     f"monomials {list(plan.monomials)}")
        _note(note)
    primary = results[methods[0]]
    extras = {}
    if len(results) > 1:
        pairwise = 0.0
        base = primary.h
        for method in methods[1:]:
            other = results[method].h
            diff = base - other
            pairwise = max(pairwise, diff.max_abs())
        extras["method_agreement_max_abs"] = pairwise
        extras["methods"] = {
            m: {"residual_max": r.residual_max, "residual_znorm": r.residual_znorm}
            for m, r in sorted(results.items())
        }
    if args.verify:  # solve() already verified the solution; report that check
        extras["verified"] = {
            "max_abs": primary.residual_max, "znorm": primary.residual_znorm,
            "max_rel": primary.max_rel,
        }
    report = documents.run_report(doc, methods[0], primary, extras)
    _emit(documents.canonical_bytes(report).decode(), args.output)
    if args.emit_csv:
        rows = ["degree,max_abs"]
        for d, m in primary.h.per_degree_max().items():
            rows.append(f"{d},{m!r}")
        _emit("\n".join(rows) + "\n", args.emit_csv)
    return 0


# ---------------------------------------------------------------------------
# subcommand: trees
# ---------------------------------------------------------------------------


def _support_from_file(path: str):
    doc = documents.load_json(path)
    if isinstance(doc, list):
        return frozenset(tuple(int(x) for x in a) for a in doc)
    if isinstance(doc, dict) and "terms" in doc:
        series = documents.series_from_doc(doc)
        sup = series.support() if isinstance(series, VectorSeries) else series.support
        return frozenset(a for a in sup if degree(a) >= 2)
    raise UsageError("support file must be a JSON list of indices or a series document")


def _cmd_trees(args) -> int:
    if args.action != "enum":
        raise UsageError(f"unknown trees action {args.action!r}")
    if not args.labeled:
        lines = []
        for chunk in trees.iter_forest_chunks(args.order, args.chunk_size):
            lines.extend(",".join(str(x) for x in m) for m in chunk)
        _emit("\n".join(lines) + "\n", args.output)
        return 0
    if args.alpha is None:
        raise UsageError("--labeled needs --alpha")
    try:
        alpha = tuple(int(x) for x in args.alpha.split(","))
    except ValueError:
        raise UsageError(f"--alpha needs comma-separated integers, got {args.alpha!r}") from None
    if args.axis > len(alpha):
        raise UsageError(f"--axis {args.axis} exceeds the {len(alpha)} axes of --alpha")
    support = (
        _support_from_file(args.support)
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
    _emit("\n".join(lines) + ("\n" if lines else ""), args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: bruno
# ---------------------------------------------------------------------------


def _cmd_bruno(args) -> int:
    from fractions import Fraction  # loads decimal too; only this command parses p/q

    try:
        omega = Fraction(args.omega) if "/" in args.omega else float(args.omega)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--omega needs a real number or a fraction p/q, got {args.omega!r}") from None
    flagged = None
    try:
        cf = divisors.continued_fraction(omega, args.terms)
    except RationalDetected as exc:
        cf = exc.partial
        flagged = "rational input detected; expansion terminated early"
    rows = ["k,a_k,q_k,term,partial_sum"]
    sums = divisors.bruno_series_1d(cf, len(cf.q) - 2) if len(cf.q) >= 2 else []
    for k in range(min(args.terms, len(cf.q))):
        a = "" if k == 0 else str(cf.quotients[k - 1])
        term = "" if k == 0 else repr(math.log(cf.q[k]) / cf.q[k - 1])
        partial = "" if k == 0 else repr(sums[k - 1])
        rows.append(f"{k},{a},{cf.q[k]},{term},{partial}")
    if sums:
        rows.append(f"# bruno_proxy={sums[-1]!r} terms={len(sums)}")
    if flagged:
        rows.append(f"# flag={flagged}")
    _emit("\n".join(rows) + "\n", args.output)
    if flagged:
        raise RationalDetected(cf, flagged)
    return 0


# ---------------------------------------------------------------------------
# subcommand: omega
# ---------------------------------------------------------------------------


def _cmd_omega(args) -> int:
    doc = documents.load_json(args.spectrum)
    if not isinstance(doc, dict):
        raise UsageError("a spectrum document is a JSON object")
    rows = ["p,value"]
    try:
        if args.variant == "tilde":
            spec = documents.spectrum_from_doc(doc, "germ")
            for p in range(2, args.p_max + 1):
                rows.append(f"{p},{divisors.omega_tilde(spec, p, args.mode)!r}")
        elif args.variant == "frac":
            omega = documents.real_numbers(doc.get("rotation", doc.get("omega")),
                                           "the frac variant's rotation or omega")
            for p in range(1, args.p_max + 1):
                rows.append(f"{p},{divisors.omega_frac(omega, p)!r}")
        elif args.variant == "hat":
            omega = documents.spectrum_from_doc(doc, "field").omega
            for p in range(2, args.p_max + 1):
                rows.append(f"{p},{divisors.omega_hat(omega, p)!r}")
        else:
            raise UsageError(f"unknown variant {args.variant!r}")
    except (IndexError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed spectrum document: {exc}") from exc
    _emit("\n".join(rows) + "\n", args.output)
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
            doc = documents.load_json(param)
            return diagnostics.ClassSpec.from_table(doc)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad class spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown class spec {text!r} (use gevrey:s, geometric:C, table:file)")


def _load_h(path: str) -> VectorSeries:
    doc = documents.load_json(path)
    if "h" in doc:  # a run report
        doc = doc["h"]
    series = documents.series_from_doc(doc)
    if not isinstance(series, VectorSeries):
        raise UsageError("growth diagnostics need a vector series")
    return series


def _require_fit(radius: float, source: str) -> None:
    """Refuse a growth fit that had too few degrees: growth_report leaves it NaN."""
    if math.isnan(radius):
        raise UsageError(f"the growth fit needs h nonzero in at least "
                         f"{diagnostics.MIN_FIT_DEGREES} degrees; {source} gives fewer")


def _cmd_diagnose(args) -> int:
    rows: list[str] = []
    if args.what == "growth":
        h = _load_h(args.input)
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
        h = _load_h(args.input)
        spec = _class_spec(args.class_m)
        fit = diagnostics.class_membership(h, spec)
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
        rep = diagnostics.germ_family_radius(args.k, args.omega, args.degree)
        _require_fit(rep.radius, f"--degree {args.degree}")
        rows.append("k,omega,degree,radius,log_radius,jackknife_spread,"
                    "bruno_value,reference_log_radius,empirical_gap")
        rows.append(
            f"{rep.k},{rep.omega!r},{rep.degree},{rep.radius!r},{rep.log_radius!r},"
            f"{rep.jackknife_spread!r},{rep.bruno_value!r},"
            f"{rep.reference_log_radius!r},{rep.empirical_gap!r}"
        )
    elif args.what == "domain":
        doc = documents.load_json(args.input)
        problem = documents.problem_from_doc(doc)
        if not isinstance(problem, linearize.VectorField):
            raise UsageError("domain diagnostics need a field problem document")
        rep = diagnostics.vf_domain_estimate(problem, args.degree,
                                             args.majorant_r or 0.5)
        _require_fit(rep.rho, f"--degree {args.degree}")
        rows.append("omega,degree,rho,d_estimate,log_d,bruno_value,gap,divergence_flag")
        rows.append(
            f"{rep.omega!r},{rep.degree},{rep.rho!r},{rep.d_estimate!r},"
            f"{rep.log_d!r},{rep.bruno_value!r},{rep.gap!r},{rep.divergence_flag}"
        )
    else:
        raise UsageError(f"unknown diagnostics kind {args.what!r}")
    _emit("\n".join(rows) + "\n", args.emit_csv or args.output)
    return 0


# ---------------------------------------------------------------------------
# subcommand: verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    problem = documents.problem_from_doc(documents.load_json(args.input))
    h = _load_h(args.solution)
    rep = linearize.verify_conjugacy(problem, h)
    rows = [
        "znorm,max_abs,max_rel,degree",
        f"{rep.znorm!r},{rep.max_abs!r},{rep.max_rel!r},{rep.degree}",
    ]
    _emit("\n".join(rows) + "\n", args.output)
    if rep.max_rel > args.tol:
        raise ResonantSpectrum(
            f"conjugacy defect {rep.max_rel:.3e} exceeds tolerance {args.tol:.1e}"
        )
    return 0


# ---------------------------------------------------------------------------
# subcommand: fixture
# ---------------------------------------------------------------------------


def _cmd_fixture(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    n, D = args.n, args.trunc
    coeffs = {}
    for alpha in iter_indices(n, args.degree_f, 2):
        vec = []
        for _ in range(n):
            r = rng.uniform(0.05, 1.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            vec.append(complex(r * math.cos(phi), r * math.sin(phi)))
        coeffs[alpha] = tuple(vec)
    f = VectorSeries.from_coeffs(n, D, coeffs)
    if args.kind == "germ":
        rotation = [_GOLDEN, _SILVER, 1.0 / math.e][:n]
        problem = linearize.Germ(divisors.GermSpectrum.from_rotation(rotation), f)
    else:
        if n == 1:
            omega = (1.0,)
        elif n == 2:
            omega = (-1.0, _GOLDEN)
        else:
            omega = (-1.0, _GOLDEN, _SILVER)[:n]
        problem = linearize.VectorField(divisors.FieldSpectrum(omega), f)
    doc = documents.problem_to_doc(problem, {"seed": args.seed})
    _emit(documents.canonical_bytes(doc).decode(), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="treelin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("linearize", help="solve a germ or field linearization problem")
    p.add_argument("kind", choices=["germ", "field"])
    p.add_argument("--input", required=True)
    p.add_argument("--degree", type=_at_least(0), required=True)
    p.add_argument("--method", default="recursive",
                   choices=["recursive", "tree", "fixedpoint", "all"])
    p.add_argument("--verify", action="store_true")
    p.add_argument("--clip", action="store_true",
                   help="omit near-resonant coefficients instead of failing "
                        "(output marked non-conforming)")
    p.add_argument("--emit-csv", metavar="PATH")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_linearize)

    p = sub.add_parser("trees", help="enumerate rooted or labeled rooted trees")
    p.add_argument("action", choices=["enum"])
    p.add_argument("--order", type=_at_least(1), required=True)
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--alpha", help="total momentum, comma separated")
    p.add_argument("--axis", type=_at_least(1), default=1, help="root line axis (1-based)")
    p.add_argument("--support", help="series document or JSON index list")
    p.add_argument("--chunk-size", type=_at_least(1), default=64)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_trees)

    p = sub.add_parser("bruno", help="continued fraction and 1-D Bruno partial sums")
    p.add_argument("--omega", required=True, help="a real number or a fraction p/q")
    p.add_argument("--terms", type=_at_least(1), default=10)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_bruno)

    p = sub.add_parser("omega", help="small-divisor minimum tables as CSV")
    p.add_argument("--spectrum", required=True, help="spectrum document (JSON)")
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--variant", required=True, choices=["tilde", "frac", "hat"])
    p.add_argument("--mode", default="realizable", choices=["realizable", "full"])
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_omega)

    p = sub.add_parser("diagnose", help="growth, class, condition and family reports")
    p.add_argument("what", choices=["growth", "class", "condition", "family", "domain"])
    p.add_argument("--input")
    p.add_argument("--class-m", default="geometric:1",
                   help="gevrey:s | geometric:C | table:file")
    p.add_argument("--class-n")
    p.add_argument("--omega", type=float)
    p.add_argument("--dmax", type=_at_least(2), default=200)
    p.add_argument("--k", type=_at_least(1), default=1)
    p.add_argument("--degree", type=_at_least(0), default=40)
    p.add_argument("--majorant-r", type=float)
    p.add_argument("--emit-csv", metavar="PATH")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("verify", help="check a solution document against its problem")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("fixture", help="generate a reproducible random problem document")
    p.add_argument("kind", choices=["germ", "field"])
    p.add_argument("--n", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--degree-f", type=int, default=4)
    p.add_argument("--trunc", type=_at_least(0), default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"domain error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except TreelinError as exc:
        print(f"domain error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
