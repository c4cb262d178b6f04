"""The ``treelin`` command: its parser, and the ``linearize`` command.

Every command is parsed here; ``fixture`` runs in :mod:`treelin.fixture`
and the other five in :mod:`treelin.commands`, which ``import treelin``
registers without running them.  Modules are cut along the commands that
run them, and each is run on first use, so a process compiles only what
its command runs: a ``linearize`` process runs ``treesum`` only for the
tree method and ``families`` only for the fixed point, and never
``trees``, ``bruno``, ``diagnostics``, ``commands`` or ``fixture``.  The
parser's description is ``DESCRIPTION``, the text of ``treelin --help``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
import time

from . import commands, documents, fixture, linearize
from .errors import TreelinError, UsageError
from .output import emit, send

DESCRIPTION = """Command-line front end.

Canonical artifacts (solution documents, CSV tables) go to stdout or the
requested output file and are byte-identical across reruns; volatile notes
such as timings go to stderr.  Exit codes: 0 success, 1 usage error,
2 domain error (resonance, rational input, family violation, coefficient overflow,
conjugacy defect, resource limit).
"""

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _check_destinations(args):
    """Refuse, before any work, an unwritable output path, or one that another option names."""
    # the file of a table: spec of --class-m or --class-n is read too
    reads = [(name, spec[len("table:"):]) for name in ("class_m", "class_n")
             if (spec := getattr(args, name, None) or "").startswith("table:")]
    reads += [(name, getattr(args, name, None)) for name in ("input", "solution", "spectrum", "support")]
    named = {os.path.realpath(path): "--" + name.replace("_", "-") for name, path in reads if path}
    for name in ("output", "emit_csv", "out"):
        path = getattr(args, name, None)
        if not path:
            continue
        option = "--" + name.replace("_", "-")
        other = named.setdefault(real := os.path.realpath(path), option)
        if other != option:
            raise UsageError(f"{other} and {option} name the same file {path}")
        folder = os.path.dirname(path) or os.curdir
        if not os.path.isdir(folder):
            raise UsageError(f"cannot write {path}: no directory {folder}")
        # a regular file is made in its real target's folder, then renamed over the target
        if os.path.isdir(path) or not os.access(path if os.path.exists(path) else folder, os.W_OK) or (
                os.path.isfile(path) and not os.access(os.path.dirname(real), os.W_OK)):
            raise UsageError(f"cannot write {path}: not a writable file")


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


def _finite(text: str) -> float:
    """An argparse type: a finite real number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _finite_where(valid, what: str):
    """An argparse type: a finite real number that is ``what``, as ``valid`` tests."""
    def number(text: str) -> float:
        value = _finite(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return number


# ---------------------------------------------------------------------------
# subcommand: linearize
# ---------------------------------------------------------------------------


def _cmd_linearize(args) -> int:
    doc = documents.load_json(args.input)
    problem = documents.problem_from_doc(doc, args.kind, args.degree)
    methods = (
        ["recursive", "tree", "fixedpoint"] if args.method == "all" else [args.method]
    )
    mode = "clip" if args.clip else "raise"
    results = {}
    for method in methods:
        start = time.perf_counter()
        results[method] = linearize.solve(problem, args.degree, method, mode)
        residual = results[method].residual
        note = (f"{method}: {time.perf_counter() - start:.3f}s, "
                f"residual max_rel {residual.max_rel:.3e}, max_abs {residual.max_abs:.3e}")
        if results[method].tree_counts is not None:
            summands, monomials = results[method].tree_counts
            note += (f", degrees 2..{args.degree}: summands {list(summands)}, "
                     f"monomials {list(monomials)}")
        _note(note)
    primary = results[methods[0]]
    extras = {}
    if len(results) > 1:
        extras["method_agreement_max_abs"] = max((primary.h - results[m].h).max_abs()
                                                 for m in methods[1:])
        extras["methods"] = {
            m: documents.residual_doc(r.residual) for m, r in sorted(results.items())
        }
    if args.verify:  # solve() already verified the solution; report that check
        extras["verified"] = documents.residual_doc(primary.residual)
    report = documents.run_report(doc, methods[0], primary, extras)
    send(lambda out: documents.write(report, out), args.output)
    if args.emit_csv:
        rows = ["degree,max_abs"] + [f"{d},{m!r}" for d, m in primary.h.per_degree_max().items()]
        emit("\n".join(rows) + "\n", args.emit_csv)
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _deferred(module, name: str):
    """The handler ``module.<name>``, looked up (and that module run) only when it is called."""
    return lambda args: getattr(module, name)(args)



@functools.cache
def build_parser() -> _Parser:
    """The ``treelin`` parser, built on a process's first call and returned again on every later one.

    Reuse is safe because parsing leaves the parser as it found it: every
    call parses into a fresh namespace, no argument has a mutable default
    (a list, dict or set) and no action accumulates (``append``,
    ``extend``, ``count``), so nothing carries from one call to the next.
    """
    parser = _Parser(prog="treelin", description=DESCRIPTION)
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
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_deferred(commands, "cmd_trees"))

    p = sub.add_parser("bruno", help="continued fraction and 1-D Bruno partial sums")
    p.add_argument("--omega", required=True, help="a real number or a fraction p/q")
    p.add_argument("--terms", type=_at_least(1), default=10)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_deferred(commands, "cmd_bruno"))

    p = sub.add_parser("omega", help="small-divisor minimum tables as CSV")
    p.add_argument("--spectrum", required=True, help="spectrum document (JSON)")
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--variant", required=True, choices=["tilde", "frac", "hat"])
    p.add_argument("--mode", default="realizable", choices=["realizable", "full"])
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_deferred(commands, "cmd_omega"))

    p = sub.add_parser("diagnose", help="growth, class, condition and family reports")
    p.add_argument("what", choices=["growth", "class", "condition", "family", "domain"])
    p.add_argument("--input")
    p.add_argument("--class-m", default="geometric:1",
                   help="gevrey:s | geometric:C | table:file")
    p.add_argument("--class-n")
    p.add_argument("--omega", type=_finite)
    p.add_argument("--dmax", type=_at_least(2), default=200)
    p.add_argument("--k", type=_at_least(1), default=1)
    p.add_argument("--degree", type=_at_least(0), help="family: 40, domain: the truncation of f")
    p.add_argument("--majorant-r", type=_finite_where(lambda r: r > 0, "positive"))
    p.add_argument("--emit-csv", metavar="PATH")
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_deferred(commands, "cmd_diagnose"))

    p = sub.add_parser("verify", help="check a solution document against its problem")
    p.add_argument("--input", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--tol", type=_finite_where(lambda t: t >= 0, ">= 0"), default=1e-9)
    p.add_argument("--output", metavar="PATH")
    p.set_defaults(fn=_deferred(commands, "cmd_verify"))

    p = sub.add_parser("fixture", help="generate a reproducible random problem document")
    p.add_argument("kind", choices=["germ", "field"])
    p.add_argument("--n", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--degree-f", type=_at_least(2), default=4)
    p.add_argument("--trunc", type=_at_least(0), default=8)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_deferred(fixture, "cmd_fixture"))

    return parser


def _clear_frames(exc: BaseException):
    """Clear the finished frames of ``exc``'s traceback and ``__context__`` chain.

    A frame that holds the exception raised through it is a reference
    cycle, and :func:`run` turns the collector off.
    """
    while exc is not None:
        tb = exc.__traceback__
        while tb is not None:
            try:
                tb.tb_frame.clear()
            except RuntimeError:  # main's own frame, still running
                pass
            tb = tb.tb_next
        exc = exc.__context__


def main(argv=None) -> int:
    """Run one command and return its exit code: 0 success, 1 usage error, 2 domain error.

    Every call parses with the one parser :func:`build_parser` keeps, so a
    process that runs many commands, such as a loop over fixtures or a
    test, pays for argparse once.  That is safe because no argument has a
    mutable default or an accumulating action.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_destinations(args)
        return args.fn(args)
    except TreelinError as exc:
        _clear_frames(exc)
        if isinstance(exc, UsageError):
            print(f"usage error: {exc}", file=sys.stderr)
            print(parser.format_usage(), file=sys.stderr, end="")
            return 1
        print(f"domain error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # solve names its own; this is any other command's
        _clear_frames(exc)
        print(f"domain error (ResourceLimit): the {args.command} command ran out of memory",
              file=sys.stderr)
        return 2


def run(argv=None) -> int:
    """The process entry point: ``main``, in a process that ends when it returns.

    The cyclic collector is off for the whole command.  With it on, a
    command made 33-40 passes over the objects numpy and treelin create as
    they load, 6-14 ms of a 150 ms process on a 2 vCPU Xeon, and found
    only what importing numpy and building the parser leave: the same
    count after every subcommand at every problem size, and no treelin
    object, as ``tests/test_cli.py`` audits.  Every object still tracked
    is frozen on the way out, since the interpreter's shutdown collects
    even with the collector off (14-20 ms).  Standard streams are still
    flushed and atexit handlers still run.  Callers that go on living,
    tests included, call ``main``, which leaves the collector as it is
    and shares one parser across all their calls.
    """
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
