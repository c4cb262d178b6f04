"""The three workloads: their op mix and their fixtures.

A round is one pass over a workload's whole mix.  A run makes
ROUNDS[workload] * seconds / 15 whole rounds (rounded, at least one), so
every run of a workload does the same work, on every commit; only the
fixture seeds (and through them the coefficients of f) depend on the
benchmark seed.  Every problem comes from the treelin fixture generator
with --degree-f 3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Rounds per 15 s of --seconds.  On a quiet 2 vCPU Xeon a round of ops
# takes about 10 s (dense_solve), 7 s (tree_cold) and 7 s (growth_sparse);
# a busy host makes that up to twice as long.
ROUNDS = {"dense_solve": 2, "tree_cold": 2, "growth_sparse": 2}

# Rotation numbers for `diagnose family`: quadratic irrationals, hence of
# bounded type and Bruno, with partial quotients small enough that h stays
# finite up to degree 300 for k = 1, 2, 3.
FAMILY_OMEGAS = (
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
    (math.sqrt(13.0) - 3.0) / 2.0,
    math.sqrt(6.0) - 2.0,
    math.sqrt(7.0) - 2.0,
    math.sqrt(10.0) - 3.0,
    math.sqrt(11.0) - 3.0,
)

# dense_solve: (n, D, methods) slots.  Slot i of round r is a germ when
# i + r is even and a field otherwise, so two rounds cover every size as
# both.  The fixed-point inputs at n=2, D >= 12 are where NoContraction
# fires today; they stay in the mix and count as failures.
_BOTH = ("recursive", "fixedpoint")
DENSE = ((3, 8, _BOTH), (3, 9, _BOTH), (3, 10, _BOTH),
         (2, 12, _BOTH), (2, 14, _BOTH), (2, 16, _BOTH),
         (2, 20, ("recursive",)), (2, 20, ("recursive",)))
DENSE_TINY = ((2, 6, _BOTH), (2, 6, _BOTH))
KINDS = ("germ", "field")

# tree_cold: (kind, n, D), each size once as germ and once as field, except
# n=1 D=11, the dearest op by far, which is a germ in even rounds and a
# field in odd ones.
COLD = (("germ", 1, 9), ("field", 1, 10), ("field", 2, 4), ("germ", 2, 5),
        ("field", 1, 9), ("germ", 1, 10), ("germ", 2, 4), ("field", 2, 5))
COLD_11 = (("germ", 1, 11), ("field", 1, 11))
COLD_TINY = (("germ", 1, 6), ("field", 2, 3))

# growth_sparse: `diagnose family` (k, D) and `diagnose domain` D (field, n=2).
FAMILY = ((1, 200), (2, 250), (3, 300), (1, 300), (2, 200), (3, 250))
DOMAIN = (20, 25, 30)
FAMILY_TINY = ((2, 40),)
DOMAIN_TINY = (8,)

WHY = {
    "dense_solve": "closed loop, one client: fresh-process linearize --method recursive|fixedpoint; "
                   "the series Cauchy product dominates and trees do nothing",
    "tree_cold": "closed loop, one client: fresh-process linearize --method tree; "
                 "building the tree plan dominates, as on every CLI call",
    "growth_sparse": "closed loop, one client: fresh-process diagnose family|domain; "
                     "high-degree, low-dimension, sparse series, the inverse of dense_solve",
}
WORKLOADS = tuple(WHY)


@dataclass(frozen=True)
class Op:
    kind: str                 # "linearize" | "family" | "domain"
    label: str
    D: int
    fixture: int | None = None
    method: str | None = None
    k: int | None = None
    omega: float | None = None


@dataclass
class Plan:
    fixtures: list            # (kind, n, D, seed)
    rounds: list              # lists of Op; a run cycles through them


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS[workload] * seconds / 15.0))


def make_plan(workload: str, seed: int, rounds: int, tiny: bool = False) -> Plan:
    """The fixtures and ops of ``rounds`` rounds."""
    rng = random.Random(f"{workload}/{seed}")
    fixtures: list = []

    def fixture(kind, n, D):
        fixtures.append((kind, n, D, rng.randrange(1, 2**31)))
        return len(fixtures) - 1

    if workload == "dense_solve":
        cycle = []
        for r in range(rounds):
            ops = []
            for slot, (n, D, methods) in enumerate(DENSE_TINY if tiny else DENSE):
                kind = KINDS[(slot + r) % 2]
                i = fixture(kind, n, D)
                ops += [Op("linearize", f"{kind} n={n} D={D} {m}", D, i, m) for m in methods]
            cycle.append(ops)
        return Plan(fixtures, cycle)
    if workload == "tree_cold":
        cycle = []
        for r in range(rounds):
            ops = []
            sizes = COLD_TINY if tiny else COLD[:2] + (COLD_11[r % 2],) + COLD[2:]
            for kind, n, D in sizes:
                i = fixture(kind, n, D)
                ops.append(Op("linearize", f"{kind} n={n} D={D} tree", D, i, "tree"))
            cycle.append(ops)
        return Plan(fixtures, cycle)
    if workload == "growth_sparse":
        # The same inputs every round: their reference checks are costly, and a
        # fresh process caches nothing between ops.
        ops = []
        for k, D in (FAMILY_TINY if tiny else FAMILY):
            omega = rng.choice(FAMILY_OMEGAS)
            ops.append(Op("family", f"family k={k} D={D}", D, k=k, omega=omega))
        for D in (DOMAIN_TINY if tiny else DOMAIN):
            ops.append(Op("domain", f"domain n=2 D={D}", D, fixture("field", 2, D)))
        return Plan(fixtures, [ops] * rounds)
    raise ValueError(f"unknown workload {workload!r}")
