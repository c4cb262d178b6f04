"""Rooted trees, labeled rooted trees, tree values, scale sequences and counting bounds.

A rooted tree of order N is encoded by its m-vector ``(m_1, ..., m_N)``
listing the number of children of each node in preorder; valid vectors
satisfy ``sum(m) == N - 1`` and ``sum(m[j:]) <= N - 1 - j`` for every j.
The forest of a given order is enumerated in lexicographic order and has
Catalan(N-1) members.

A labeled tree attaches to each node a multi-index label of degree >= 2 and
to each node's exit line a coordinate axis (the root's exit line is the root
line).  The momentum of a line is the sum of (label - entering-axes) over
the subtree below it; momenta grow strictly along root-ward paths and the
total momentum of an order-N tree has signed degree >= N + 1.

This module holds the paper's combinatorics, which no solve runs: the tree
sum that :func:`linearize.solve` evaluates is built over subtrees, without
listing labelings, in :mod:`treelin.treesum`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from . import bruno, families, series  # deferred, run on first use
from .indices import (
    degree,
    graded_key,
    index_add,
    index_sub,
    multi_binom,
    multi_factorial,
    signed_degree,
    unit_index,
)
from .records import Record

# ---------------------------------------------------------------------------
# rooted trees (m-vector encoding)
# ---------------------------------------------------------------------------


def is_valid_m(m) -> bool:
    N = len(m)
    if N < 1 or any(x < 0 for x in m):
        return False
    if sum(m) != N - 1:
        return False
    return all(sum(m[j:]) <= N - 1 - j for j in range(N))


@lru_cache(maxsize=32)
def _forest(N: int):
    if N < 1:
        raise ValueError("tree order must be >= 1")
    if N == 1:
        return ((0,),)
    out = []
    for t in range(1, N):
        for split in _compositions(N - 1, t):
            for subs in product(*[_forest(k) for k in split]):
                m = (t,)
                for s in subs:
                    m = m + s
                out.append(m)
    return tuple(sorted(out))


def _compositions(total: int, parts: int):
    """Ordered compositions of ``total`` into ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_forest(N: int):
    """All rooted trees of order N as m-vectors, lexicographically sorted."""
    return list(_forest(N))


def _chunk_len(m, start: int) -> int:
    """Length of the tree vector beginning at ``start`` (smallest prefix with sum == len-1)."""
    s = 0
    for length in range(1, len(m) - start + 1):
        s += m[start + length - 1]
        if s == length - 1:
            return length
    raise ValueError(f"invalid m-vector {m}")


def standard_decomposition(m):
    """Split a tree into (root degree, list of child subtrees)."""
    m = tuple(m)
    if not is_valid_m(m):
        raise ValueError(f"invalid m-vector {m}")
    t = m[0]
    subs = []
    pos = 1
    for _ in range(t):
        length = _chunk_len(m, pos)
        subs.append(m[pos : pos + length])
        pos += length
    return t, subs


@lru_cache(maxsize=4096)
def children_lists(m) -> tuple:
    """Per-node tuples of child indices (preorder indexing)."""
    m = tuple(m)
    kids = [[] for _ in m]

    def build(start: int):
        pos = start + 1
        for _ in range(m[start]):
            kids[start].append(pos)
            length = _chunk_len(m, pos)
            build(pos)
            pos += length

    build(0)
    return tuple(tuple(k) for k in kids)


# ---------------------------------------------------------------------------
# labeled trees
# ---------------------------------------------------------------------------


class LabeledTree(Record, compare=("m", "node_labels", "line_axes")):
    """A rooted tree with node labels and per-line axis labels.

    ``node_labels[v]`` is the multi-index attached to node v (degree >= 2);
    ``line_axes[v]`` is the 0-based axis of the line exiting node v, the
    root line axis for v = 0.  Momenta, per-node entering-label sums and the
    combinatorial weights used by the inversion formula are precomputed;
    equality and hashing see only the tree and its labels.
    """

    __slots__ = ("m", "node_labels", "line_axes", "betas", "momenta", "weight", "binom_product")

    @property
    def order(self) -> int:
        return len(self.m)

    @property
    def n(self) -> int:
        return len(self.node_labels[0])

    @property
    def nu_theta(self):
        """Total momentum (momentum of the root line)."""
        return self.momenta[0]

    @property
    def nubar_theta(self):
        return index_sub(self.momenta[0], unit_index(self.n, self.line_axes[0]))

    def lines(self):
        """(momentum, axis, reduced momentum) for every line, root line first."""
        n = self.n
        return [
            (nu, ax, index_sub(nu, unit_index(n, ax)))
            for nu, ax in zip(self.momenta, self.line_axes)
        ]

    def sort_key(self):
        return (self.m, self.node_labels, self.line_axes)


def _build_labeled(m, children, node_labels, line_axes, n):
    betas = []
    for v in range(len(m)):
        b = [0] * n
        for c in children[v]:
            b[line_axes[c]] += 1
        betas.append(tuple(b))
    momenta = [None] * len(m)
    for v in range(len(m) - 1, -1, -1):  # preorder puts children after parents
        nu = index_sub(node_labels[v], betas[v])
        for c in children[v]:
            nu = index_add(nu, momenta[c])
        momenta[v] = nu
    weight = 1.0
    binom = 1.0
    for v in range(len(m)):
        weight *= multi_factorial(betas[v]) / math.factorial(m[v])
        binom *= multi_binom(node_labels[v], betas[v])
    return LabeledTree(tuple(m), tuple(node_labels), tuple(line_axes), tuple(betas),
                       tuple(momenta), weight, binom)


def _label_tuples(count: int, budget: int, support_sorted):
    """All ways to pick ``count`` labels from support with degrees summing to ``budget``."""
    if count == 0:
        if budget == 0:
            yield ()
        return
    for alpha in support_sorted:
        d = degree(alpha)
        if d > budget - 2 * (count - 1):
            continue
        for rest in _label_tuples(count - 1, budget - d, support_sorted):
            yield (alpha,) + rest


@lru_cache(maxsize=256)
def _labeled_forest_cached(N, alpha, j, support_key, n):
    support_sorted = sorted(support_key, key=graded_key)
    target = degree(alpha)
    budget = target + N - 1
    out = []
    if target < N + 1:
        return ()
    for labels in _label_tuples(N, budget, support_sorted):
        # the total momentum is the label sum less one unit per non-root exit
        # axis, so only axis tuples with these counts can reach alpha
        need = [sum(column) - a for column, a in zip(zip(*labels), alpha)]
        if any(c < 0 for c in need):
            continue
        axes_list = []
        for rest in product(range(n), repeat=N - 1):
            counts = [0] * n
            for ax in rest:
                counts[ax] += 1
            if counts == need:
                axes_list.append((j,) + rest)
        for m in _forest(N):
            children = children_lists(m)
            for axes in axes_list:
                tree = _build_labeled(m, children, labels, axes, n)
                if tree.nu_theta == alpha:
                    out.append(tree)
    out.sort(key=LabeledTree.sort_key)
    return tuple(out)


def enumerate_labeled(N: int, alpha, j: int, support, n: int | None = None):
    """Labeled trees of order N with total momentum ``alpha`` and root axis ``j``.

    ``support`` is the set of admissible node labels (each of degree >= 2);
    labels outside it would multiply the inversion summand by zero.  The
    result is deterministic: sorted by (m-vector, node labels, line axes).

    Every such labeling is listed, including those where a node label
    fails to dominate the axes of its entering lines, whose
    ``binom_product`` is zero.
    """
    alpha = tuple(alpha)
    if n is None:
        n = len(alpha)
    if j < 0 or j >= n:
        raise ValueError(f"axis {j} out of range for n={n}")
    support_key = frozenset(
        tuple(a) for a in support if degree(a) >= 2
    )
    return list(_labeled_forest_cached(N, alpha, j, support_key, n))


# ---------------------------------------------------------------------------
# tree values of the inversion expansion
# ---------------------------------------------------------------------------


def tree_value(theta, op, family: families.SeriesFamily, u) -> series.VectorSeries:
    """Value of one rooted tree in the inversion expansion.

    ``family`` must be the expansion of the right-hand side of
    H = op(w + u * family(H)) about op(w), which is zero for the
    linearization problems (w = 0).  End nodes contribute op(g_0 * u); an
    internal node of degree t contributes the t-th differential of the
    family applied to the child values, divided by t!.
    """
    n, D = family.n, family.inner_trunc
    t, subs = standard_decomposition(tuple(theta))
    if t == 0:
        return op(family.coeff((0,) * n).scale(u))
    vals = [tree_value(s, op, family, u) for s in subs]
    acc = series.VectorSeries.zero(n, D)
    inv_t_fact = 1.0 / math.factorial(t)
    for axes in product(range(n), repeat=t):
        gamma = [0] * n
        for ax in axes:
            gamma[ax] += 1
        gamma = tuple(gamma)
        g = family.coeff(gamma)
        if g.is_zero():
            continue
        term = g
        dead = False
        for i, ax in enumerate(axes):
            comp = vals[i].component(ax)
            if comp.is_zero():
                dead = True
                break
            term = term.mul_scalar_series(comp)
        if dead:
            continue
        acc = acc + term.scale(u * multi_factorial(gamma) * inv_t_fact)
    return op(acc)


# ---------------------------------------------------------------------------
# scale sequences and scales of lines
# ---------------------------------------------------------------------------


class ScaleSequence:
    """A strictly increasing integer sequence p_0 < p_1 < ... with p_0 >= 2.

    The default generator extends on demand with p_k = 2^(k+1); explicit
    tables and continued-fraction denominators are also supported.
    """

    def __init__(self, values=None, generator: str = "pow2"):
        if generator not in ("pow2", "table"):
            raise ValueError(f"unknown generator {generator!r}")
        self.generator = generator
        if values is None:
            if generator == "table":
                raise ValueError("a table sequence needs explicit values")
            values = [2, 4]
        values = [int(v) for v in values]
        if not values or values[0] < 2:
            raise ValueError("scale sequences start at p_0 >= 2")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("scale sequences are strictly increasing")
        self._p = list(values)

    @classmethod
    def pow2(cls):
        return cls(generator="pow2")

    @classmethod
    def from_table(cls, values):
        return cls(values, generator="table")

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("scale index must be >= 0")
        while k >= len(self._p):
            if self.generator == "pow2":
                self._p.append(2 ** (len(self._p) + 1))
            else:
                raise IndexError(f"scale sequence has only {len(self._p)} entries")
        return self._p[k]

    def __len__(self):
        return len(self._p)

    def kappa(self, d: int) -> int:
        """The index k with p_k <= d < p_(k+1)."""
        if d < self[0]:
            raise ValueError(f"{d} lies below p_0 = {self[0]}")
        k = 0
        try:
            while self[k + 1] <= d:
                k += 1
        except IndexError:
            raise ValueError(
                f"scale sequence ends at p_{len(self._p) - 1} = {self._p[-1]}, "
                f"too short to bracket {d}"
            ) from None
        return k

    def __repr__(self):
        head = ", ".join(str(v) for v in self._p[:6])
        return f"ScaleSequence([{head}{', ...' if self.generator == 'pow2' else ''}])"


# scale_of_line gives up on a line still small at this many scales.
MAX_SCALE = 64


def scale_of_line(nubar, omega, P: ScaleSequence, variant: str = "germ"):
    """The scale k at which the line's nubar stops being small, or None.

    It is the first k with ``bruno.phi_counting`` 0 at scale k + 1.  A
    line that is not small at scale 0, or whose reduced momentum vanishes,
    carries no scale and is excluded from the per-scale counts.
    """
    nubar = tuple(nubar)
    if not any(nubar) or not bruno.phi_counting(nubar, 0, omega, P, variant):
        return None
    for k in range(MAX_SCALE):
        if not bruno.phi_counting(nubar, k + 1, omega, P, variant):
            return k
    raise RuntimeError(f"no scale below {MAX_SCALE}; nubar {nubar} looks resonant")


def count_scale(theta: LabeledTree, k: int, omega, P: ScaleSequence,
                variant: str = "germ") -> int:
    """Number of lines of ``theta`` (root line included) on scale k."""
    return sum(
        1
        for _, _, nubar in theta.lines()
        if scale_of_line(nubar, omega, P, variant) == k
    )


def counting_bound(theta: LabeledTree, k: int, P: ScaleSequence,
                   variant: str = "bruno") -> int:
    """Upper bound for the number of lines on scale k in one tree.

    ``bruno``: 0 if |nubar_theta| < p_k else 2*floor(|nubar_theta|/p_k) - 1.
    ``davie``: floor(|nubar_theta|/p_k), the convergent-denominator variant.
    Degrees are signed sums, matching the momentum arithmetic.
    """
    nb = signed_degree(theta.nubar_theta)
    p = P[k]
    if variant == "bruno":
        return 0 if nb < p else 2 * (nb // p) - 1
    if variant == "davie":
        return nb // p
    raise ValueError(f"unknown variant {variant!r}")
