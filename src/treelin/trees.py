"""Rooted trees, labeled rooted trees, the tree-sum solver, scale sequences and counting bounds.

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

The tree-sum route of :func:`linearize.solve` lives here: the sum over
labeled trees compiled into a :class:`TreePlan` per set of nonzero
coefficients of f, and evaluated at their values.  Keeping it here means
a recursive or fixed-point process never runs this module.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby, product

import numpy as np

from . import divisors
from .errors import UsageError
from .series import (
    SeriesFamily,
    VectorSeries,
    degree,
    dominates,
    graded_indices,
    graded_key,
    index_add,
    index_sub,
    multi_binom,
    multi_factorial,
    signed_degree,
    slot_count,
    unit_index,
)

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


def iter_forest_chunks(N: int, chunk_size: int):
    """Deterministic chunked iteration over the forest, preserving global order."""
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")
    forest = _forest(N)
    for i in range(0, len(forest), chunk_size):
        yield forest[i : i + chunk_size]


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


def recompose(t: int, subtrees) -> tuple:
    """Inverse of :func:`standard_decomposition`."""
    if t != len(subtrees):
        raise ValueError("root degree must match the number of subtrees")
    m = (t,)
    for s in subtrees:
        m = m + tuple(s)
    return m


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


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# labeled trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledTree:
    """A rooted tree with node labels and per-line axis labels.

    ``node_labels[v]`` is the multi-index attached to node v (degree >= 2);
    ``line_axes[v]`` is the 0-based axis of the line exiting node v, the
    root line axis for v = 0.  Momenta, per-node entering-label sums and the
    combinatorial weights used by the inversion formula are precomputed.
    """

    m: tuple
    node_labels: tuple
    line_axes: tuple
    betas: tuple = field(compare=False)
    momenta: tuple = field(compare=False)
    weight: float = field(compare=False)
    binom_product: float = field(compare=False)

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
    return LabeledTree(
        m=tuple(m),
        node_labels=tuple(node_labels),
        line_axes=tuple(line_axes),
        betas=tuple(betas),
        momenta=tuple(momenta),
        weight=weight,
        binom_product=binom,
    )


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


class LinePolynomials:
    """The tree sum of every line (nu, a) as a polynomial in f's nonzero coefficients.

    The variables are the coefficients f_{L,a} named in ``variables``
    (pairs (L, a), variable v is the v-th).  The polynomial of a line is
    built bottom-up over subtrees, by degree of nu:

        S(nu, a) = (1 / div(nu, a)) * sum_L f_{L,a} R(nu, L),

    with R(nu, L) = 1 for nu == L, and otherwise the sum of
    beta!/t! * binom(L, beta) * prod_i S(mu_i, a_i) over the root choices
    of :meth:`_roots` (child count t, ordered child axes, ordered splits
    into child momenta mu_i).  Expanding every product gives back
    the sum over the contributing labelings, summand by summand, with the
    labelings' weights, binomials and line divisors; grouping it by subtree
    is the distributive law, so no labeling is ever enumerated.  Then
    h_{alpha,j} = S(alpha, j) evaluated at f.

    Divisors come from :func:`divisors.divisor_table` by graded-lex slot.
    A line whose polynomial is nonempty and whose divisor modulus is below
    ``tol`` is resolved by :func:`divisors.small_divisors`: its polynomial
    becomes zero and its (nu, a, modulus) record joins ``clipped``, in
    graded-lex order.

    ``poly[(nu, a)]`` maps a monomial to its constant.  A monomial is an
    int holding one byte per variable, the variable's exponent, so the
    product of monomials is the sum of their keys.  ``count[(nu, a)]`` is
    the number of labelings summed, the same recursion with every constant
    1.  Each sum is accumulated in the order the loops visit its terms:
    lines by slot, labels L ascending, root choices in :meth:`_roots`
    order, splits in :meth:`_split` order, and products child by child.
    """

    EXPONENT_BITS = 8

    def __init__(self, spectrum, variables, D: int, tol: float):
        if D > 1 << self.EXPONENT_BITS:  # a line of degree D has at most D - 1 nodes
            raise UsageError(f"the tree method reaches degree {1 << self.EXPONENT_BITS} at most")
        n = self.n = spectrum.n
        self.support = sorted({L for L, _ in variables}, key=graded_key)
        self._splits: dict = {}  # (rest, t) -> ordered splits into t child momenta
        self.key = {v: 1 << (self.EXPONENT_BITS * i) for i, v in enumerate(variables)}
        self.poly: dict = {}
        self.count: dict = {}
        self.clipped: list = []
        self._live: set = set()
        table, _ = divisors.divisor_table(spectrum, D)
        indices = graded_indices(n, D)
        for d in range(2, D + 1):
            lo, hi = slot_count(n, d - 1), slot_count(n, d)
            lines = [self._line(indices[s]) for s in range(lo, hi)]
            nonzero = np.array([[bool(polys[a]) for polys, _ in lines] for a in range(n)])
            small, bad = divisors.small_divisors(spectrum, nonzero, D, lo, tol)
            self.clipped.extend(bad)
            for i, (polys, counts) in enumerate(lines):
                nu = indices[lo + i]
                for a in range(n):
                    if not nonzero[a, i] or small[a, i]:
                        continue
                    dv = complex(table[a, lo + i])
                    self.poly[(nu, a)] = {k: c / dv for k, c in polys[a].items()}
                    self.count[(nu, a)] = counts[a]
                    self._live.add(nu)

    def _roots(self, nu):
        """(L, axes, beta, splits) per root with at least one split, by ascending L.

        The ways to hang a contributing subtree below a line of momentum
        ``nu``: a root label L with t >= 0 ordered children entering along
        axes a_1..a_t, whose axis counts beta satisfy beta <= L, and child
        momenta that are nonnegative, of degree >= 2, carry subtrees and sum
        to nu - L + beta.  Because beta <= L at every node these are exactly
        the labelings whose every binom(label, beta) is nonzero, and no
        momentum ever leaves the nonnegative indices.  The leaf L == nu has
        no axes and the one empty split.
        """
        n = self.n
        for L in self.support:
            d = index_sub(nu, L)
            if not any(d):
                yield L, (), (0,) * n, ((),)
                continue
            # t children need beta <= L and t momenta of degree >= 2 in |d| + t
            for t in range(1, min(degree(d), degree(L)) + 1):
                for axes in product(range(n), repeat=t):
                    beta = [0] * n
                    for a in axes:
                        beta[a] += 1
                    beta = tuple(beta)
                    rest = index_add(d, beta)
                    if any(r < 0 for r in rest) or not dominates(L, beta):
                        continue
                    splits = self._split(rest, t)
                    if splits:
                        yield L, axes, beta, splits

    def _split(self, rest, t: int) -> tuple:
        """Ordered t-tuples of child momenta summing to ``rest``, each with subtrees."""
        key = (rest, t)
        out = self._splits.get(key)
        if out is None:
            if t == 1:
                out = ((rest,),) if degree(rest) >= 2 and rest in self._live else ()
            else:
                out = []
                for first in product(*[range(r + 1) for r in rest]):
                    if degree(first) < 2 or degree(rest) - degree(first) < 2 * (t - 1):
                        continue
                    if first not in self._live:
                        continue
                    for tail in self._split(index_sub(rest, first), t - 1):
                        out.append((first,) + tail)
                out = tuple(out)
            self._splits[key] = out
        return out

    def _line(self, nu):
        """Per axis a, sum_L f_{L,a} R(nu, L) (undivided) and its labeling count."""
        n = self.n
        polys = [{} for _ in range(n)]
        counts = [0] * n
        for L, choices in groupby(self._roots(nu), key=lambda choice: choice[0]):
            R, rc = self._root_sum(L, choices)
            for a in range(n):
                kv = self.key.get((L, a))
                if kv is None or not R:
                    continue
                P = polys[a]
                for k, c in R.items():
                    P[k + kv] = P.get(k + kv, 0) + c
                counts[a] += rc
        return polys, counts

    def _root_sum(self, L, choices):
        """R(nu, L) from the root choices of one label L, and its labeling count."""
        poly, count = self.poly, self.count
        R: dict = {}
        rc = 0
        for _, axes, beta, splits in choices:
            if not axes:  # the leaf L == nu, the only choice of its label
                return {0: 1.0}, 1
            w = multi_factorial(beta) / math.factorial(len(axes)) * multi_binom(L, beta)
            for split in splits:
                factors = [poly.get(line) for line in zip(split, axes)]
                if not all(factors):
                    continue
                term = {k: w * c for k, c in factors[0].items()}
                cnt = count[(split[0], axes[0])]
                for line, F in zip(zip(split[1:], axes[1:]), factors[1:]):
                    nxt: dict = {}
                    for k1, c1 in term.items():
                        for k2, c2 in F.items():
                            nxt[k1 + k2] = nxt.get(k1 + k2, 0) + c1 * c2
                    term = nxt
                    cnt *= count[line]
                for k, c in term.items():
                    R[k] = R.get(k, 0) + c
                rc += cnt
        return R, rc


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
# the tree-sum solver
# ---------------------------------------------------------------------------

# compiled plans (see TreePlan) of the _TREE_PLAN_LIMIT most recently used
# (spectrum, n, D, variables, tol)
_TREE_PLANS: OrderedDict = OrderedDict()
_TREE_PLAN_LIMIT = 16


@dataclass(frozen=True)
class TreePlan:
    """The tree sum of h as arrays over the nonzero coefficients of f.

    The variables are those coefficients f_{L,a}, in graded-lex order of L,
    then by axis (:func:`_tree_variables`).  Let v be their values followed
    by a 1.  Row r adds ``const[r] * prod(v[rows[r]])`` to the flat slot
    ``slots[r]`` (axis * slot_count + slot) of h.  Index rows list a
    monomial's variables in ascending order, padded with the 1; the rows of
    a slot run in lexicographic order of their index rows.  ``clipped``
    holds the (alpha, j, modulus) records of the lines whose divisor is
    below the tolerance.  ``summands[d - 2]`` and ``monomials[d - 2]``
    count the labelings summed and the rows of the coefficients of
    degree d.
    """

    const: np.ndarray
    rows: np.ndarray
    slots: np.ndarray
    clipped: tuple
    summands: tuple
    monomials: tuple


def _tree_variables(f: VectorSeries):
    """The nonzero coefficients of f as TreePlan variables, and their values."""
    F = f.to_array()
    slots, axes = np.nonzero(F.T)
    indices = graded_indices(f.n, f.trunc)
    variables = tuple((indices[s], a) for s, a in zip(slots.tolist(), axes.tolist()))
    return variables, F.T[slots, axes]


def tree_plan(problem, D: int, tol: float = divisors.DEFAULT_TOL) -> TreePlan:
    """The (cached) tree plan :func:`linearize.solve` uses for ``problem`` at degree D."""
    variables, _ = _tree_variables(problem.f.truncate(D))
    return _tree_plan(problem.spectrum, D, variables, tol)


def _tree_plan(spectrum, D: int, variables: tuple, tol: float) -> TreePlan:
    n = spectrum.n
    key = (spectrum.key(), n, D, variables, tol)
    plan = _TREE_PLANS.get(key)
    if plan is not None:
        _TREE_PLANS.move_to_end(key)
        return plan
    lines = LinePolynomials(spectrum, variables, D, tol)
    M = slot_count(n, D)
    slot_of = {alpha: s for s, alpha in enumerate(graded_indices(n, D))}
    keys: list = []
    const: list = []
    slots: list = []
    summands = [0] * (D - 1)
    monomials = [0] * (D - 1)
    for (nu, a), poly in lines.poly.items():
        keys.extend(poly)
        const.extend(poly.values())
        slots.extend([a * M + slot_of[nu]] * len(poly))
        summands[degree(nu) - 2] += lines.count[(nu, a)]
        monomials[degree(nu) - 2] += len(poly)
    rows = _index_rows(keys, len(variables))
    slots = np.array(slots, dtype=np.intp)
    order = np.lexsort(tuple(rows[:, c] for c in reversed(range(rows.shape[1]))) + (slots,))
    plan = TreePlan(np.array(const, dtype=complex)[order], rows[order],
                    slots[order], tuple(lines.clipped), tuple(summands), tuple(monomials))
    _TREE_PLANS[key] = plan
    if len(_TREE_PLANS) > _TREE_PLAN_LIMIT:
        _TREE_PLANS.popitem(last=False)
    return plan


def _index_rows(keys: list, V: int) -> np.ndarray:
    """Monomial keys (one exponent byte per variable) as rows of variable indices padded with V."""
    exps = np.frombuffer(b"".join(k.to_bytes(V, "little") for k in keys),
                         dtype=np.uint8).reshape(len(keys), V)
    row, var = np.nonzero(exps)
    reps = exps[row, var]
    row, var = np.repeat(row, reps), np.repeat(var, reps)  # one entry per factor
    lengths = np.bincount(row, minlength=len(keys))
    rows = np.full((len(keys), int(lengths.max(initial=0))), V, dtype=np.int32)
    rows[row, np.arange(len(row)) - (np.cumsum(lengths) - lengths)[row]] = var
    return rows


def _solve_tree(spectrum, f: VectorSeries, D: int, on_small_divisor, tol):
    """Explicit tree-sum solution (the same trees for germs and fields).

    Each coefficient is the sum over labeled rooted trees of the divisor and
    coefficient product, weighted per node by binom(label, entering axes)
    times beta!/m! (the multinomial share of the ordered child slots).  The
    sum is compiled once per set of nonzero coefficients of f into a
    :class:`TreePlan`, and evaluated with one gather, one product per row
    and one sum per slot.
    """
    n = f.n
    variables, values = _tree_variables(f)
    plan = _tree_plan(spectrum, D, variables, tol)
    clipped: list = []
    divisors.settle_small_divisors(plan.clipped, on_small_divisor, clipped)
    terms = plan.const * np.append(values, 1.0)[plan.rows].prod(axis=1)
    h = np.zeros(n * slot_count(n, D), dtype=complex)
    h.real = np.bincount(plan.slots, terms.real, h.size)
    h.imag = np.bincount(plan.slots, terms.imag, h.size)
    return VectorSeries.from_array(n, D, h.reshape(n, -1)), tuple(clipped)


# ---------------------------------------------------------------------------
# tree values of the inversion expansion
# ---------------------------------------------------------------------------


def tree_value(theta, op, family: SeriesFamily, u, w: VectorSeries | None = None) -> VectorSeries:
    """Value of one rooted tree in the inversion expansion.

    ``family`` must be the expansion of the right-hand side about op(w)
    (about zero for the linearization problems, where w = 0); ``w`` itself
    is not consulted.  End nodes contribute op(g_0 * u); an internal node of
    degree t contributes the t-th differential of the family applied to the
    child values, divided by t!.
    """
    n, D = family.n, family.inner_trunc
    t, subs = standard_decomposition(tuple(theta))
    if t == 0:
        return op(family.coeff((0,) * n).scale(u))
    vals = [tree_value(s, op, family, u, w) for s in subs]
    acc = VectorSeries.zero(n, D)
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


def _scale_value(nubar, omega, variant: str) -> float:
    dot = sum(x * w for x, w in zip(nubar, omega))
    if variant == "germ":
        return divisors.frac_distance(dot.real if isinstance(dot, complex) else dot)
    if variant == "field":
        return abs(dot)
    raise ValueError(f"unknown variant {variant!r}")


def _threshold(p: int, omega, variant: str) -> float:
    if variant == "germ":
        return 0.5 * divisors.omega_frac(tuple(omega), p)
    return 0.5 * divisors.omega_hat(tuple(omega), p)


def scale_of_line(nubar, omega, P: ScaleSequence, variant: str = "germ",
                  max_scale: int = 64):
    """The scale k with threshold(p_(k+1)) <= value < threshold(p_k), or None.

    Lines whose reduced momentum vanishes carry no scale and are excluded
    from the per-scale counts.
    """
    nubar = tuple(nubar)
    if all(x == 0 for x in nubar):
        return None
    x = _scale_value(nubar, omega, variant)
    if x >= _threshold(P[0], omega, variant):
        return None
    for k in range(max_scale):
        if x >= _threshold(P[k + 1], omega, variant):
            return k
    raise RuntimeError(
        f"no scale below {max_scale}; value {x:.3e} looks resonant"
    )


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
