"""The tree-sum route of :func:`linearize.solve`: labeled-tree sums as line polynomials.

h_{alpha,j} is a sum over labeled rooted trees (see :mod:`treelin.trees`)
of divisor and coefficient products.  :class:`LinePolynomials` builds that
sum for every line as a polynomial in the nonzero coefficients of f,
bottom-up over subtrees, so no labeling is ever enumerated, and
:func:`_solve_tree` evaluates each polynomial at f's values.  Only a tree
solve runs this module: it shares the kernel and the divisor table with
the other two routes, and nothing else.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from . import divisors
from .errors import ResourceLimit, UsageError
from .indices import (
    degree,
    graded_key,
    index_add,
    index_sub,
    multi_binom,
    multi_factorial,
    slot_count,
    unit_index,
)
from .series import VectorSeries, graded_indices


# The most monomials a LinePolynomials build may hold.  Builds from
# degree-3 f hold 869,139 at n=3 D=7 and 589,371 at n=2 D=12; n=3 D=8 passes
# 4 million.
MONOMIAL_LIMIT = 2_000_000

# A monomial key holds one exponent of this many bits per variable.
EXPONENT_BITS = 8


class LinePolynomials:
    """The tree sum of every line (nu, a) as a polynomial in f's nonzero coefficients.

    The variables are the coefficients f_{L,a} named in ``variables``
    (pairs (L, a), variable v is the v-th).  The polynomial of a line is
    built bottom-up over subtrees, by degree of nu:

        S(nu, a) = (1 / div(nu, a)) * sum_L f_{L,a} R(nu, L),

    where R(nu, L) = [z^nu] (z + h)^L with h_i = sum_mu S(mu, i) z^mu.  So
    R(nu, L) = 1 for nu == L, and otherwise

        R(nu, L) = sum over 0 < beta <= L of binom(L, beta) P(beta, nu - L + beta),

    with P(beta, m) = [z^m] h^beta, the power chain of h: P(e_i, m) is the
    line (m, i) itself, and P(beta, m) = sum_mu P(beta - e_i, m - mu) S(mu, i)
    over the lines (mu, i) with subtrees, i the first nonzero axis of beta
    (the parent rule of :class:`series.PowerTable`).  Expanding every
    product gives back the sum over the contributing labelings, summand by
    summand, with their weights, binomials and line divisors: a node of
    label L whose t children enter along axes counted by beta has t!/beta!
    orderings of the children, each weighted beta!/t!.  Grouping the sum by
    subtree is the distributive law, so no labeling is ever enumerated.
    Then h_{alpha,j} = S(alpha, j) evaluated at f.

    div(nu, a) is row a, slot nu of ``table`` (:func:`divisors.divisor_table`),
    built to its truncation D.  A line whose polynomial is nonempty and whose
    divisor modulus is below ``divisors.RESONANCE_TOL`` is resolved by
    :func:`divisors.small_divisors`: its polynomial becomes zero and its
    (nu, a, modulus) record joins ``clipped``, in graded-lex order.

    ``held`` counts the monomials of the line polynomials and the power-chain
    memo; past ``MONOMIAL_LIMIT`` the build raises :class:`ResourceLimit`.

    ``poly[(nu, a)]`` maps a monomial to its constant.  A monomial is an
    int holding one byte per variable, the variable's exponent, so the
    product of monomials is the sum of their keys.  ``count[(nu, a)]`` is
    the number of labelings summed: the same chain with every constant 1
    and t!/beta! in place of binom(L, beta).  Each sum is accumulated in
    the order the loops visit its terms: lines by slot, labels L ascending,
    beta in graded-lex order, chain terms by slot of mu, and in a product
    of two polynomials the chain parent's keys in the outer loop.
    """

    def __init__(self, table: VectorSeries, variables):
        n, D = self.n, self.D = table.n, table.trunc
        if D > 1 << EXPONENT_BITS:  # a line of degree D has at most D - 1 nodes
            raise UsageError(f"the tree method reaches degree {1 << EXPONENT_BITS} at most")
        self.support = sorted({L for L, _ in variables}, key=graded_key)
        self.key = {v: 1 << (EXPONENT_BITS * i) for i, v in enumerate(variables)}
        self.poly: dict = {}
        self.count: dict = {}
        self.clipped: list = []
        self.held = 0
        self._betas: dict = {}  # L -> (beta, binom(L, beta), t!/beta!) for 0 < beta <= L
        self._parent: dict = {}  # beta -> (beta - e_i, i), i its first nonzero axis
        for L in self.support:
            betas = sorted(filter(any, product(*[range(l + 1) for l in L])), key=graded_key)
            self._betas[L] = [(b, multi_binom(L, b), math.factorial(degree(b)) // multi_factorial(b))
                              for b in betas]
            for b in betas:
                i = next(k for k, e in enumerate(b) if e)
                self._parent[b] = (index_sub(b, unit_index(n, i)), i)
        self._memo = {up: {} for up, _ in self._parent.values() if degree(up) >= 2}
        self._live = [[] for _ in range(n)]  # per axis, the momenta of lines with subtrees
        indices, divs = graded_indices(n, D), table.to_array()
        for d in range(2, D + 1):
            lo, hi = slot_count(n, d - 1), slot_count(n, d)
            lines = [self._line(indices[s]) for s in range(lo, hi)]
            nonzero = np.array([[bool(polys[a]) for polys, _ in lines] for a in range(n)])
            small, bad = divisors.small_divisors(table, nonzero, lo)
            self.clipped.extend(bad)
            for i, (polys, counts) in enumerate(lines):
                nu = indices[lo + i]
                for a in range(n):
                    if not nonzero[a, i] or small[a, i]:
                        continue
                    dv = complex(divs[a, lo + i])
                    self.poly[(nu, a)] = {k: c / dv for k, c in polys[a].items()}
                    self.count[(nu, a)] = counts[a]
                    self._live[a].append(nu)
        del self._memo

    def _line(self, nu):
        """Per axis a, sum_L f_{L,a} R(nu, L) (undivided) and its labeling count."""
        n = self.n
        polys = [{} for _ in range(n)]
        counts = [0] * n
        for L in self.support:
            R, rc = self._expansion(nu, L)
            if not R:
                continue
            for a in range(n):
                kv = self.key.get((L, a))
                if kv is None:
                    continue
                P = polys[a]
                for k, c in R.items():
                    P[k + kv] = P.get(k + kv, 0) + c
                counts[a] += rc
        self.held += sum(map(len, polys))  # checked once per line, memo included
        if self.held > MONOMIAL_LIMIT:
            raise ResourceLimit("tree", self.n, self.D, f"held over {MONOMIAL_LIMIT:,} monomials")
        return polys, counts

    def _expansion(self, nu, L):
        """R(nu, L) = [z^nu] (z + h)^L and its labeling count."""
        if nu == L:
            return {0: 1.0}, 1
        d = index_sub(nu, L)
        R: dict = {}
        rc = 0
        for beta, binom, orders in self._betas[L]:
            if degree(beta) > degree(d):  # |beta| lines of degree >= 2 exceed |m| = |d| + |beta|
                break
            m = index_add(d, beta)
            if min(m) < 0:
                continue
            P, pc = self._power(beta, m)
            for k, c in P.items():
                R[k] = R.get(k, 0) + binom * c
            rc += orders * pc
        return R, rc

    def _power(self, beta, m):
        """P(beta, m) = [z^m] h^beta, and its labeling count for one order of the axes."""
        up, i = self._parent[beta]
        if not any(up):
            return self.poly.get((m, i), {}), self.count.get((m, i), 0)
        memo = self._memo.get(beta)
        if memo is not None and m in memo:
            return memo[m]
        P: dict = {}
        pc = 0
        top = degree(m) - 2 * degree(up)
        for mu in self._live[i]:
            if degree(mu) > top:
                break
            rest = index_sub(m, mu)
            if min(rest) < 0:
                continue
            Q, qc = self._power(up, rest)
            if not Q:
                continue
            S = self.poly[(mu, i)]
            for k1, c1 in Q.items():
                for k2, c2 in S.items():
                    P[k1 + k2] = P.get(k1 + k2, 0) + c1 * c2
            pc += qc * self.count[(mu, i)]
        if memo is not None:
            self.held += len(P)
            memo[m] = P, pc
        return P, pc


def _tree_variables(f: VectorSeries):
    """The nonzero coefficients f_{L,a} of f as variables (graded-lex in L, then by axis), and their values."""
    F = f.to_array()
    slots, axes = np.nonzero(F.T)
    indices = graded_indices(f.n, f.trunc)
    variables = tuple((indices[s], a) for s, a in zip(slots.tolist(), axes.tolist()))
    return variables, F.T[slots, axes].tolist()


def _solve_tree(table: VectorSeries, f: VectorSeries, clipped: list | None):
    """Explicit tree-sum solution through f.trunc (the same trees for germs and fields), and its counts.

    Builds :class:`LinePolynomials` and evaluates each line at f's nonzero
    coefficients in the normative order: a monomial is the product of its
    variables in ascending order, memoized by prefix, and a line sums
    constant * monomial over its monomials in lexicographic order of their
    variable lists, which on the keys is descending order of
    ``key.to_bytes(len(variables), "little")``.  Returns h and the pair
    (summands, monomials): per degree 2..D, the labelings summed and the
    monomials evaluated.
    """
    n, D = f.n, f.trunc
    variables, values = _tree_variables(f)
    lines = LinePolynomials(table, variables)
    divisors.settle_small_divisors(lines.clipped, clipped)
    value = {lines.key[v]: x for v, x in zip(variables, values)}  # every monomial met, by key

    def monomial(k):
        x = value.get(k)
        if x is None:  # the prefix times the last variable
            last = 1 << (EXPONENT_BITS * ((k.bit_length() - 1) // EXPONENT_BITS))
            x = value[k] = monomial(k - last) * value[last]
        return x

    h: dict = {}
    summands, monomials = [0] * (D - 1), [0] * (D - 1)
    for (nu, a), poly in lines.poly.items():
        total = 0j
        for k in sorted(poly, key=lambda m: m.to_bytes(len(variables), "little"), reverse=True):
            total += poly[k] * monomial(k)
        h.setdefault(nu, [0j] * n)[a] = total
        summands[degree(nu) - 2] += lines.count[(nu, a)]
        monomials[degree(nu) - 2] += len(poly)
    return VectorSeries.from_coeffs(n, D, h), (tuple(summands), tuple(monomials))
