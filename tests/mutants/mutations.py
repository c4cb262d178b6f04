"""The mutations the runner applies, one at a time: each a fault the named tests must catch.

A mutation replaces ``old``, which occurs exactly once in ``file``, by
``new``.  ``breaks`` says what the fault breaks, and ``tests`` names the
test files that must fail on it.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutation(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    breaks: str
    tests: tuple


CANONICAL = "src/treelin/canonical.py"
OUTPUT = "src/treelin/output.py"
WRITER_TESTS = ("tests/test_documents.py",)

MUTATIONS = (
    # the layout routine of treelin.canonical
    Mutation("keys_unsorted", CANONICAL, "    return sorted(obj)", "    return list(obj)",
             "keys in insertion order, not sorted", WRITER_TESTS),
    Mutation("int_repr", CANONICAL, "put(int.__repr__(value))", "put(repr(value))",
             "an int subclass written by its own repr", WRITER_TESTS),
    Mutation("float_repr", CANONICAL, "text = float.__repr__(value)", "text = repr(value)",
             "numpy.float64 written as np.float64(...)", WRITER_TESTS),
    Mutation("non_finite_unmapped", CANONICAL, "put(_NON_FINITE.get(text, text))", "put(text)",
             "nan and inf written as Python spells them, not as NaN and Infinity", WRITER_TESTS),
    Mutation("true_as_1", CANONICAL, 'return put("true")', 'return put("1")',
             "true written as 1", WRITER_TESTS),
    Mutation("indent_wrong", CANONICAL, '_INDENT = "  "', '_INDENT = "   "',
             "three-space indent", WRITER_TESTS),
    Mutation("no_comma", CANONICAL, 'separator = "," + inner', 'separator = " " + inner',
             "entries not separated by commas", WRITER_TESTS),
    Mutation("empty_list_opened", CANONICAL, '{brackets[1]}" if separator[0] == "," else brackets)',
             '{brackets[1]}")', "an empty list or object written over two lines", WRITER_TESTS),
    Mutation("iterator_within_list", CANONICAL, "_write(entry, level + 1, put, False)",
             "_write(entry, level + 1, put, iterators)",
             "write takes an iterator within a list", WRITER_TESTS),
    Mutation("canonical_bytes_takes_iterator", CANONICAL, "_write(doc, 0, pieces.append, False)",
             "_write(doc, 0, pieces.append, True)", "canonical_bytes takes an iterator",
             WRITER_TESTS),
    # the atomic write of treelin.output
    Mutation("partial_left", OUTPUT, "            os.unlink(partial)\n", "            pass\n",
             "a failed write leaves its partial file beside the target", ("tests/test_cli.py",)),
    Mutation("mode_dropped", OUTPUT, "os.fchmod(fd, os.stat(path).st_mode & 0o7777)", "pass",
             "a replaced file loses its permission bits", ("tests/test_cli.py",)),
    # the nine mutations of the ROADMAP Baseline's probe
    Mutation("rotation_phase_sign", "src/treelin/divisors.py", "cmath.exp(1j * math.pi * x)",
             "cmath.exp(-1j * math.pi * x)", "the rotation divisor's phase",
             ("tests/test_divisors.py",)),
    Mutation("offset_in_0_1", "src/treelin/divisors.py", "return x - round(x)",
             "return x - math.floor(x)", "the rotation offset reduced to [0, 1), not [-1/2, 1/2]",
             ("tests/test_divisors.py", "tests/test_metamorphic.py")),
    Mutation("resonance_tol_inclusive", "src/treelin/divisors.py",
             "small = nonzero & (modulus < RESONANCE_TOL)", "small = nonzero & (modulus <= RESONANCE_TOL)",
             "the division refuses a divisor of modulus exactly RESONANCE_TOL",
             ("tests/test_properties.py",)),
    Mutation("verify_shrinks_defect", "src/treelin/linearize.py",
             "return ConjugacyReport(defect.max_abs(),", "return ConjugacyReport(defect.max_abs() * 1e-6,",
             "verify reports a defect a million times too small", ("tests/test_linearize.py",)),
    Mutation("reach_skips_first_degree_2_slot", "src/treelin/linearize.py",
             "late = np.flatnonzero(small[:, n + 1:].any(axis=0))",
             "late = np.flatnonzero(small[:, n + 2:].any(axis=0))",
             "the reach pass misses a small divisor at the first degree-2 slot",
             ("tests/test_linearize.py",)),
    Mutation("kernel_degree_7_slot", "src/treelin/series.py",
             "    return np.bincount(out2, weights=terms.view(np.float64)).view(np.complex128)\n",
             "    out = np.bincount(out2, weights=terms.view(np.float64)).view(np.complex128)\n"
             "    out[:1] *= 1 + 1e-9 * (d == 7)\n"
             "    return out\n",
             "one degree-7 slot of every n >= 2 product 1e-9 too large",
             ("tests/test_series.py",)),
    Mutation("divisor_table_last_slot", "src/treelin/divisors.py",
             "    return VectorSeries.from_array(spectrum.n, D, rows)\n",
             "    rows[-1, -1] *= 1 + 1e-9\n    return VectorSeries.from_array(spectrum.n, D, rows)\n",
             "the divisor table's last slot 1e-9 too large", ("tests/test_exact.py",)),
    Mutation("settled_rtol_loose", "src/treelin/linearize.py", "SETTLED_RTOL = 1e-12",
             "SETTLED_RTOL = 1e-6", "the fixed point accepts a settled degree that moved 1e6 times further",
             ("tests/test_linearize.py",)),
    Mutation("tree_lines_ascending", "src/treelin/treesum.py",
             'key=lambda m: m.to_bytes(len(variables), "little"), reverse=True)',
             'key=lambda m: m.to_bytes(len(variables), "little"), reverse=False)',
             "the tree's line sums in ascending key order, against the normative order",
             ("tests/test_linearize.py",)),
    # found by running the probe's RESONANCE_TOL mutation at the reach decision
    Mutation("resonance_tol_inclusive_in_reach", "src/treelin/linearize.py",
             "small = np.abs(divs) < RESONANCE_TOL", "small = np.abs(divs) <= RESONANCE_TOL",
             "solve refuses a divisor of modulus exactly RESONANCE_TOL", ("tests/test_linearize.py",)),
)
