"""Exhaustive reference solver for instances with small layers.

Each layer's tree-consistent orderings are the rows of one position matrix.
The crossing count decomposes over consecutive-layer gaps, so a shortest-path
DP over per-layer rows finds the optimum over the product space.  A gap's
crossings for every pair of rows are ``(P - S_u S_v^T) / 2``, with one +-1
sign column per edge pair of distinct ends: a float32 product, exact since
every entry is +-1 and P is far below 2**24.  The product and the min-plus
step run tile by tile, so no array exceeds ``_BLOCK`` entries at any budget.
"""

from __future__ import annotations

import math
from itertools import chain, permutations

from ._lazy import np
from .mlcm import LayerTree, MlcmInstance, Solution, _check_valid

__all__ = [
    "OrderingCapExceeded",
    "BudgetExceeded",
    "count_tree_orderings",
    "enumerate_tree_orderings",
    "brute_force_optimum",
]

LEAF_CAP = 9
# the smallest power of ten that admits every seven-wide paper-length story
DEFAULT_BUDGET = 1_000_000_000
_BLOCK = 1 << 22  # also holds the position matrix of LEAF_CAP leaves, 9! x 9


class OrderingCapExceeded(ValueError):
    """A layer has too many leaves to enumerate (> LEAF_CAP)."""


class BudgetExceeded(ValueError):
    """The DP over per-layer orderings would exceed the work budget."""


def count_tree_orderings(tree: LayerTree) -> int:
    """Number of tree-consistent permutations: product of child-count factorials."""
    total = 1
    for v in range(tree.n_leaves, tree.n_nodes):
        total *= math.factorial(len(tree.children[v]))
    return total


def _position_matrix(tree: LayerTree) -> np.ndarray:
    """``(k, n)`` int8 matrix: row t holds each leaf's position in the t-th
    of the tree's k orderings.

    A leaf's position sums, over the internal nodes above it, the offset
    that node's child permutation gives the child holding the leaf.  Each
    node with d > 1 children is one mixed-radix digit: its ``(d!, n)`` table
    of offsets is added to every row so far.
    """
    n = tree.n_leaves
    if n > LEAF_CAP:
        raise OrderingCapExceeded(f"{n} leaves exceeds cap {LEAF_CAP}")
    leaves = [[v] for v in range(n)] + [[] for _ in range(n, tree.n_nodes)]
    for v in tree._topo_order[:0:-1]:  # children before parents
        leaves[tree.parent[v]] += leaves[v]
    pos = np.zeros((1, n), dtype=np.int8)
    for kids in tree.children[n:]:
        d = len(kids)
        if d < 2:
            continue
        # rank[t, i]: the place of child i in the t-th permutation
        rank = np.fromiter(chain.from_iterable(permutations(range(d))), dtype=np.int8,
                           count=math.factorial(d) * d).reshape(-1, d)
        sizes = np.array([len(leaves[c]) for c in kids], dtype=np.int8)
        table = np.zeros((len(rank), n), dtype=np.int8)
        for i, c in enumerate(kids):  # offset: the leaves of the children placed before
            table[:, leaves[c]] = (sizes * (rank < rank[:, i:i + 1])).sum(axis=1, dtype=np.int8)[:, None]
        pos = (pos[:, None, :] + table[None, :, :]).reshape(-1, n)
    return pos


def enumerate_tree_orderings(tree: LayerTree):
    """Yield every tree-consistent leaf permutation exactly once, in the
    row order of :func:`_position_matrix`."""
    yield from map(tuple, np.argsort(_position_matrix(tree), axis=1).tolist())


def _signs(pos: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float32 +-1 per (row, pair): +1 iff leaf ``a[p]`` comes after ``b[p]``."""
    return np.where(pos[:, a] > pos[:, b], np.float32(1), np.float32(-1))


def _gap_step(cost: np.ndarray, pos_u: np.ndarray, pos_v: np.ndarray, gap_edges):
    """One min-plus step over a gap: the least total reaching each lower row,
    and the first upper row that gives it."""
    pairs = [e + f for i, e in enumerate(gap_edges) for f in gap_edges[i + 1:]
             if e[0] != f[0] and e[1] != f[1]]
    ua, va, ub, vb = np.array(pairs, dtype=np.intp).reshape(-1, 4).T
    n_pairs, ku, kv = len(pairs), len(pos_u), len(pos_v)
    cols = min(kv, max(1, _BLOCK // max(n_pairs, math.isqrt(_BLOCK))))
    rows = min(ku, max(1, _BLOCK // max(n_pairs, cols)))
    best = np.full(kv, np.inf, dtype=np.float32)
    back = np.zeros(kv, dtype=np.int32)
    for c0 in range(0, kv, cols):
        s_v = _signs(pos_v[c0:c0 + cols], va, vb)
        tile = slice(c0, c0 + len(s_v))
        for r0 in range(0, ku, rows):
            total = _signs(pos_u[r0:r0 + rows], ua, ub) @ s_v.T
            total -= n_pairs
            total *= -0.5  # crossings
            total += cost[r0:r0 + rows, None]
            at = np.argmin(total, axis=0)
            low = total[at, np.arange(len(at))]
            better = low < best[tile]
            best[tile][better] = low[better]
            back[tile][better] = at[better] + r0
    return best, back


def brute_force_optimum(instance: MlcmInstance, budget: int = DEFAULT_BUDGET) -> tuple[int, Solution]:
    """Exact optimum by DP over per-layer tree-consistent orderings.

    An invalid instance raises ``InstanceFormatError`` from its first
    violation.  ``budget`` bounds the DP transition work, ``sum over gaps of
    (orderings of layer r) * (orderings of layer r+1)``; exceeding it raises
    :class:`BudgetExceeded` before any heavy work happens.  Returns the
    optimal crossing count and one witness solution.
    """
    _check_valid(instance)
    p = instance.p
    if p == 0:
        return 0, Solution(())
    counts = [count_tree_orderings(t) for t in instance.trees]
    for r, t in enumerate(instance.trees):
        if t.n_leaves > LEAF_CAP:
            raise OrderingCapExceeded(f"layer {r + 1} has {t.n_leaves} leaves (cap {LEAF_CAP})")
    work = sum(counts[r] * counts[r + 1] for r in range(p - 1))
    if work > budget or max(counts) > budget:
        raise BudgetExceeded(f"DP work {work} exceeds budget {budget}")

    pos = [_position_matrix(t) for t in instance.trees]
    # each step takes off its least total, so the totals stay below a gap's
    # crossings and float32 holds them exactly
    base = 0
    cost = np.zeros(counts[0], dtype=np.float32)
    back: list[np.ndarray] = []
    for r in range(p - 1):
        cost, step = _gap_step(cost, pos[r], pos[r + 1], instance.edges[r])
        back.append(step)
        base += int(cost.min())
        cost -= cost.min()
    picks = [int(np.argmin(cost))]
    for step in reversed(back):
        picks.append(int(step[picks[-1]]))
    orders = (np.argsort(pos[r][t]).tolist() for r, t in enumerate(reversed(picks)))
    return base, Solution(tuple(map(tuple, orders)))
