"""Multi-indices and the graded-lex order, without numpy (conventions: :mod:`treelin.series`)."""

import math


def degree(alpha) -> int:
    """Total (signed) degree: sum of the entries."""
    return sum(alpha)


def abs_degree(nu) -> int:
    """Sum of absolute values of the entries."""
    return sum(abs(x) for x in nu)


signed_degree = degree  # explicit name for momenta


def dominates(alpha, beta) -> bool:
    """Component-wise ``alpha >= beta``."""
    return all(a >= b for a, b in zip(alpha, beta))


def index_add(alpha, beta):
    return tuple(a + b for a, b in zip(alpha, beta))


def index_sub(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def unit_index(n: int, i: int):
    """Standard basis index e_i (0-based axis)."""
    return tuple(1 if k == i else 0 for k in range(n))


def graded_key(alpha):
    """Sort key for graded lexicographic order."""
    return (sum(alpha), alpha)


def multi_factorial(alpha) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def multi_binom(alpha, beta) -> int:
    """Product of per-component binomials; 0 unless alpha >= beta."""
    if not dominates(alpha, beta):
        return 0
    out = 1
    for a, b in zip(alpha, beta):
        out *= math.comb(a, b)
    return out


def iter_indices(n: int, max_degree: int, min_degree: int = 0):
    """All indices in N^n with min_degree <= total degree <= max_degree, graded-lex."""
    for d in range(min_degree, max_degree + 1):
        yield from _indices_of_degree(n, d)


def _indices_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _indices_of_degree(n - 1, d - first):
            yield (first,) + rest


def slot_count(n: int, D: int) -> int:
    """Number of indices of degree <= D in n variables: C(n + D, n)."""
    return math.comb(n + D, n)
